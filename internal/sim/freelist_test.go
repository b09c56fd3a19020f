package sim

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/hmccmd"
	"repro/internal/packet"
	"repro/internal/topo"
)

// roundTripTo sends one RD16 to cube cub and returns its response.
func roundTripTo(t *testing.T, s *Simulator, cub int, tag uint16) *packet.Rsp {
	t.Helper()
	var sc ReqScratch
	r, err := sc.BuildRead(cub, 0x40, tag, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Send(0, r); err != nil {
		t.Fatal(err)
	}
	s.ClockUntilRecv(256)
	rsp, ok := s.Recv(0)
	if !ok || rsp.TAG != tag {
		t.Fatalf("no response for tag %d", tag)
	}
	return rsp
}

// TestReleaseRspReturnsToOwnDevice pins the response free list's
// ownership: a released response is the next one its own device hands
// out, and never one that another simulator — or another cube of the
// same topology — hands out.
func TestReleaseRspReturnsToOwnDevice(t *testing.T) {
	a, err := New(config.TwoGBDev())
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(config.TwoGBDev())
	if err != nil {
		t.Fatal(err)
	}
	ra := roundTripTo(t, a, 0, 1)
	ReleaseRsp(ra)
	rb := roundTripTo(t, b, 0, 2)
	if rb == ra {
		t.Fatal("simulator b handed out a response released by simulator a")
	}
	ReleaseRsp(rb)
	if got := roundTripTo(t, a, 0, 3); got != ra {
		t.Fatal("simulator a did not reuse its own released response")
	}
	ReleaseRsp(ra)
	if got := roundTripTo(t, b, 0, 4); got != rb {
		t.Fatal("simulator b did not reuse its own released response")
	}

	// A forwarded response belongs to the cube that built it.
	c, err := New(config.TwoGBDev(), WithDevices(2, topo.KindChain))
	if err != nil {
		t.Fatal(err)
	}
	remote := roundTripTo(t, c, 1, 5)
	ReleaseRsp(remote)
	local := roundTripTo(t, c, 0, 6)
	if local == remote {
		t.Fatal("cube 0 handed out a response built by cube 1")
	}
	ReleaseRsp(local)
	if got := roundTripTo(t, c, 1, 7); got != remote {
		t.Fatal("cube 1 did not reuse its own released response")
	}
}

// TestSimulatorsOnOwnGoroutines drives several simulators at once, each
// built, driven and released on its own goroutine, the way sweep
// workers and server sessions run them. Simulators share nothing but
// the page pool, so under -race (the CI script runs this test with
// -count=10) it proves no hidden shared state is left on the hot path;
// every response must also carry the data its own simulator stored.
func TestSimulatorsOnOwnGoroutines(t *testing.T) {
	const sims, rounds = 4, 200
	var wg sync.WaitGroup
	errs := make(chan error, sims)
	for g := 0; g < sims; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs <- driveOwnSimulator(g, rounds)
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// driveOwnSimulator writes, increments and reads back a block per round
// on a fresh simulator, releasing every response.
func driveOwnSimulator(g, rounds int) error {
	s, err := New(config.TwoGBDev())
	if err != nil {
		return err
	}
	defer s.Close()
	var sc ReqScratch
	call := func(r *packet.Rqst, err error) (*packet.Rsp, error) {
		if err != nil {
			return nil, err
		}
		if err := s.Send(0, r); err != nil {
			return nil, err
		}
		s.ClockUntilRecv(256)
		rsp, ok := s.Recv(0)
		if !ok || rsp.ERRSTAT != 0 {
			return nil, fmt.Errorf("sim %d: %v failed", g, r.Cmd)
		}
		return rsp, nil
	}
	for i := 0; i < rounds; i++ {
		adrs := uint64(i%64) * 64
		want := uint64(g)<<32 | uint64(i)
		rsp, err := call(sc.BuildWrite(0, adrs, 1, 0, []uint64{want, 0}, false))
		if err != nil {
			return err
		}
		ReleaseRsp(rsp)
		if rsp, err = call(sc.BuildAtomic(hmccmd.INC8, 0, adrs, 2, 0, nil)); err != nil {
			return err
		}
		ReleaseRsp(rsp)
		if rsp, err = call(sc.BuildRead(0, adrs, 3, 0, 16)); err != nil {
			return err
		}
		if got := rsp.Payload[0]; got != want+1 {
			return fmt.Errorf("sim %d round %d: read %#x, want %#x", g, i, got, want+1)
		}
		ReleaseRsp(rsp)
	}
	return nil
}
