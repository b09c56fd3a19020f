package device

import (
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/hmccmd"
	"repro/internal/packet"
	"repro/internal/trace"
)

// executeUnderTrace drives every per-device surface of the execute
// phase at once on a fresh traced device — the store, the register file
// (posted faults), the tracer, CMC execution and the AMO unit — and
// checks every burst drains and the posted faults latch.
func executeUnderTrace() error {
	cfg := config.FourLink4GB()
	d, err := New(0, cfg, trace.NewJSONL(io.Discard, trace.LevelAll))
	if err != nil {
		return err
	}
	if err := d.CMC().Load(testLockOp{}); err != nil {
		return err
	}

	block := uint64(cfg.MaxBlockSize)
	for burst := 0; burst < 4; burst++ {
		want := 0
		tag := uint16(burst * 64)
		for v := 0; v < cfg.Vaults; v++ {
			base := uint64(v) * block // one address per vault
			rqsts := []*packet.Rqst{
				{Cmd: hmccmd.WR16, ADRS: base, TAG: tag, Payload: []uint64{uint64(v), uint64(burst)}},
				{Cmd: hmccmd.RD16, ADRS: base, TAG: tag + 1},
				{Cmd: hmccmd.ADD16, ADRS: base, TAG: tag + 2, Payload: []uint64{1, 1}},
				{Cmd: hmccmd.CMC125, ADRS: base, TAG: tag + 3, Payload: []uint64{uint64(v) + 1, 0}},
				// Posted write to an out-of-range address: latches
				// ErrBitAccessFault in the register file.
				{Cmd: hmccmd.PWR16, ADRS: cfg.CapacityBytes() + base, TAG: tag + 4, Payload: []uint64{1, 2}},
			}
			for i, r := range rqsts {
				if err := d.Send((v+i)%cfg.Links, r); err != nil {
					return fmt.Errorf("vault %d rqst %d: %v", v, i, err)
				}
			}
			want += 4 // the posted write never responds
			tag += 8
		}
		got := 0
		for c := 0; c < 64 && got < want; c++ {
			d.Clock()
			for l := 0; l < cfg.Links; l++ {
				for {
					rsp, ok := d.Recv(l)
					if !ok {
						break
					}
					packet.PutRsp(rsp)
					got++
				}
			}
		}
		if got != want {
			return fmt.Errorf("burst %d: received %d responses, want %d", burst, got, want)
		}
	}

	errReg, err := d.Regs().Read(RegERR)
	if err != nil {
		return err
	}
	if errReg&ErrBitAccessFault == 0 {
		return fmt.Errorf("ERR = %#x, want ErrBitAccessFault latched by posted faults", errReg)
	}
	return nil
}

// TestParallelExecuteUnderTrace runs the traced execute-phase audit on
// several devices at once, each on its own goroutine, the way
// independent simulators run side by side. Run under -race (the CI
// script does) it proves that no execute-phase state — response free
// lists, stores, register files, tracers, CMC tables — is shared
// between devices.
func TestParallelExecuteUnderTrace(t *testing.T) {
	const devices = 4
	errs := make([]error, devices)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = executeUnderTrace()
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("device %d: %v", g, err)
		}
	}
}

// runSeededTraffic drives a fixed pseudorandom mix of reads, writes and
// atomics across every vault of the device and returns its final report
// string. The traffic depends only on the seed, so two devices driven
// with the same seed from the same state must report byte-identically.
func runSeededTraffic(t *testing.T, d *Device, cfg config.Config, seed uint64) string {
	t.Helper()
	rng := splitmix64(seed)
	payload := []uint64{1, 2}
	for burst := 0; burst < 20; burst++ {
		n := 8 + int(rng.next()%uint64(3*cfg.Vaults))
		sent := 0
		for i := 0; i < n; i++ {
			v := int(rng.next() % uint64(cfg.Vaults))
			r := packet.Rqst{ADRS: vaultAddr(cfg, v, int(rng.next()%8)), TAG: uint16(i)}
			switch rng.next() % 3 {
			case 0:
				r.Cmd = hmccmd.RD16
			case 1:
				r.Cmd, r.Payload = hmccmd.WR16, payload
			default:
				r.Cmd, r.Payload = hmccmd.ADD16, payload
			}
			if err := d.Send(i%cfg.Links, &r); err != nil {
				continue // deterministic: stall depends only on prior traffic
			}
			if !r.Cmd.Posted() {
				sent++
			}
		}
		got := 0
		for c := 0; c < 64 && got < sent; c++ {
			d.Clock()
			for l := 0; l < cfg.Links; l++ {
				for {
					rsp, ok := d.Recv(l)
					if !ok {
						break
					}
					packet.PutRsp(rsp)
					got++
				}
			}
		}
		if got != sent {
			t.Fatalf("burst %d: %d responses, want %d", burst, got, sent)
		}
	}
	rep := d.BuildReport()
	return fmt.Sprintf("%s\nimbalance=%.6f ops/cycle=%.6f stats=%+v",
		rep.String(), rep.LoadImbalance(), rep.OpsPerCycle(), d.Stats())
}

// TestPooledExecDeterminism is the execute phase's bit-identity pin for
// pooled devices: across seeds, a fresh device and a device recycled
// through Reset — after other traffic warmed its response free list,
// flight pool and store — must produce byte-identical reports
// (counters, queue statistics, per-vault ops — everything Report
// captures) for identical traffic.
func TestPooledExecDeterminism(t *testing.T) {
	cfg := config.TwoGBDev()
	pooled, err := New(0, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 42, 0xDEADBEEF} {
		fresh, err := New(0, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		runSeededTraffic(t, pooled, cfg, ^seed) // different traffic to recycle
		pooled.Reset()
		a := runSeededTraffic(t, fresh, cfg, seed)
		b := runSeededTraffic(t, pooled, cfg, seed)
		if a != b {
			t.Errorf("seed %#x: fresh and pooled reports diverge:\n--- fresh\n%s\n--- pooled\n%s", seed, a, b)
		}
	}
}
