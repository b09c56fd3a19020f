package topo

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/hmccmd"
	"repro/internal/packet"
)

// driveChain runs a fixed traffic pattern against a fresh 4-cube chain
// and returns a full observable transcript: every response in arrival
// order (cycle, link, tag, cube), the forwarding counters, and each
// device's statistics. Two chains given the same pattern must produce
// byte-identical transcripts.
func driveChain() (string, error) {
	tp, err := New(KindChain, 4, config.TwoGBDev(), nil)
	if err != nil {
		return "", err
	}
	cfg := tp.Devices()[0].Cfg
	var log strings.Builder
	payload := []uint64{7, 9}
	next := 0
	inflight := 0
	const total = 256
	for cycle := 0; cycle < 4000 && (next < total || inflight > 0); cycle++ {
		// Issue up to one request per link per cycle, round-robining the
		// target cube and alternating reads with writes.
		for l := 0; l < cfg.Links && next < total; l++ {
			r := packet.Rqst{
				ADRS: uint64(next%64) * uint64(cfg.MaxBlockSize),
				TAG:  uint16(next),
				CUB:  uint8(next % len(tp.Devices())),
			}
			if next%3 == 0 {
				r.Cmd, r.Payload = hmccmd.WR16, payload
			} else {
				r.Cmd = hmccmd.RD16
			}
			if err := tp.Send(l, &r); err != nil {
				break // stalled link: retry the same request next cycle
			}
			next++
			inflight++
		}
		tp.Clock()
		for l := 0; l < cfg.Links; l++ {
			for {
				rsp, ok := tp.Recv(l)
				if !ok {
					break
				}
				fmt.Fprintf(&log, "c=%d l=%d tag=%d cub=%d cmd=%v\n", tp.Cycle(), l, rsp.TAG, rsp.CUB, rsp.Cmd)
				packet.PutRsp(rsp)
				inflight--
			}
		}
	}
	if inflight != 0 || next != total {
		return "", fmt.Errorf("traffic did not drain: next=%d inflight=%d", next, inflight)
	}
	fmt.Fprintf(&log, "fwdRqst=%d fwdRsp=%d\n", tp.ForwardedRqsts, tp.ForwardedRsps)
	for _, d := range tp.Devices() {
		fmt.Fprintf(&log, "dev%d %s", d.ID, d.BuildReport().String())
	}
	return log.String(), nil
}

// TestTopoParallelEquivalence pins the multi-cube engine's determinism
// when several chains run at once, each stepped on its own goroutine
// the way sweep workers and server sessions run simulators: every chain
// must produce the serial transcript byte for byte — same response
// ordering and timing, same forwarding counters, same per-device
// reports. Each cube returns responses to its own free list, so under
// -race this also proves that chains share no packet state.
func TestTopoParallelEquivalence(t *testing.T) {
	want, err := driveChain()
	if err != nil {
		t.Fatal(err)
	}
	const chains = 4
	got := make([]string, chains)
	errs := make([]error, chains)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g], errs[g] = driveChain()
		}(g)
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("chain %d: %v", g, errs[g])
		}
		if got[g] != want {
			t.Errorf("chain %d transcript diverges from serial:\n--- serial\n%s\n--- chain %d\n%s", g, want, g, got[g])
		}
	}
}
