package sim

import (
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/hmccmd"
	"repro/internal/trace"
)

// lockUnlockTraced runs a stateful CMC workload on a fresh, fully traced
// simulator: 32 locks spread across the vaults, locked then unlocked,
// every response checked and released.
func lockUnlockTraced() error {
	s, err := New(config.FourLink4GB(), WithTracer(trace.NewJSONL(io.Discard, trace.LevelAll)))
	if err != nil {
		return err
	}
	defer s.Close()
	for _, name := range []string{"hmc_lock", "hmc_unlock"} {
		if err := s.LoadCMC(name); err != nil {
			return err
		}
	}
	const n = 32
	for round, cmd := range []hmccmd.Rqst{hmccmd.CMC125, hmccmd.CMC127} {
		for i := 0; i < n; i++ {
			r, err := BuildCMC(cmd, 0, uint64(i)*64, uint16(round*n+i), i%4, []uint64{uint64(i) + 1, 0})
			if err != nil {
				return err
			}
			if err := s.Send(i%4, r); err != nil {
				return err
			}
		}
		done := 0
		for c := 0; c < 40 && done < n; c++ {
			s.Clock()
			for link := 0; link < 4; link++ {
				for {
					rsp, ok := s.Recv(link)
					if !ok {
						break
					}
					if rsp.Cmd == hmccmd.RspError {
						return fmt.Errorf("round %d tag %d: ERRSTAT %#x", round, rsp.TAG, rsp.ERRSTAT)
					}
					if rsp.Payload[0] != 1 {
						return fmt.Errorf("round %d tag %d: op failed", round, rsp.TAG)
					}
					ReleaseRsp(rsp)
					done++
				}
			}
		}
		if done != n {
			return fmt.Errorf("round %d: %d/%d ops completed", round, done, n)
		}
	}
	// Every lock must have been released by the unlock round.
	d, err := s.Device(0)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		blk, err := d.Store().ReadBlock(uint64(i) * 64)
		if err != nil {
			return err
		}
		if blk.Lo != 0 {
			return fmt.Errorf("lock %d still held by TID %d", i, blk.Hi)
		}
	}
	return nil
}

// TestParallelClockTracedCMC clocks several traced simulators running
// the lock/unlock workload at once, each on its own goroutine. Run
// under -race (the CI script does) it proves the sim-layer composition
// — tracer, CMC table, store, response free lists — shares no state
// between simulators clocked in parallel.
func TestParallelClockTracedCMC(t *testing.T) {
	const sims = 4
	errs := make([]error, sims)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = lockUnlockTraced()
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("simulator %d: %v", g, err)
		}
	}
}
