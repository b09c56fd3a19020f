package hmcsim

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/hmccmd"
)

// A simulator is owned by one goroutine, and parallelism comes from
// clocking several simulators at once — the sweep workers and the
// session server's shards do exactly that. Simulators clocked in
// parallel share only the process-wide page pool, so each must
// reproduce the serial result exactly; under -race these tests also
// prove that no hot-path state (response free lists, stores, tracers,
// power hooks, CMC tables) is shared between them.

// parallelSims is how many simulators each test clocks at once.
const parallelSims = 4

// clockInParallel runs fn on parallelSims goroutines at once, each
// building and driving its own simulator, and returns every result.
func clockInParallel[T any](t *testing.T, fn func() (T, error)) []T {
	t.Helper()
	out := make([]T, parallelSims)
	errs := make([]error, parallelSims)
	var wg sync.WaitGroup
	for g := range out {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out[g], errs[g] = fn()
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("simulator %d: %v", g, err)
		}
	}
	return out
}

// TestParallelClockEquivalence: mutex and stream runs on simulators
// clocked in parallel produce exactly the serial results.
func TestParallelClockEquivalence(t *testing.T) {
	serial, err := RunMutex(FourLink4GB(), 64, 0x40)
	if err != nil {
		t.Fatal(err)
	}
	for g, par := range clockInParallel(t, func() (MutexRun, error) {
		return RunMutex(FourLink4GB(), 64, 0x40)
	}) {
		if par != serial {
			t.Errorf("simulator %d: mutex serial %+v != parallel %+v", g, serial, par)
		}
	}

	sStream, err := RunStream(FourLink4GB(), 16, 128, 1.25)
	if err != nil {
		t.Fatal(err)
	}
	for g, par := range clockInParallel(t, func() (any, error) {
		return RunStream(FourLink4GB(), 16, 128, 1.25)
	}) {
		if par != sStream {
			t.Errorf("simulator %d: stream serial %+v != parallel %+v", g, sStream, par)
		}
	}
}

// TestParallelClockStatsMatchSerial compares the device counters
// themselves between a serial GUPS run and runs clocked in parallel.
func TestParallelClockStatsMatchSerial(t *testing.T) {
	run := func() (DeviceStats, error) {
		var dev *Device
		if _, err := RunGUPS(FourLink4GB(), GUPSAtomic, 16, 1024, 800, WithObserver(func(s *Simulator) {
			dev = s.Devices()[0]
		})); err != nil {
			return DeviceStats{}, err
		}
		return dev.Stats(), nil
	}
	serial, err := run()
	if err != nil {
		t.Fatal(err)
	}
	for g, par := range clockInParallel(t, run) {
		if par != serial {
			t.Errorf("simulator %d: stats diverge:\nserial   %+v\nparallel %+v", g, serial, par)
		}
	}
}

// TestParallelClockWithPower: each simulator's power hook feeds only its
// own model, so models of simulators clocked in parallel accumulate the
// serial total.
func TestParallelClockWithPower(t *testing.T) {
	run := func() (float64, error) {
		pm := NewPowerModel(DefaultPowerParams())
		if _, err := RunStream(FourLink4GB(), 8, 64, 1.25, WithPowerModel(pm)); err != nil {
			return 0, err
		}
		return pm.TotalPJ(), nil
	}
	serial, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if serial == 0 {
		t.Fatal("power model accumulated no energy")
	}
	for g, par := range clockInParallel(t, run) {
		if par != serial {
			t.Errorf("simulator %d: energy diverges: serial %v, parallel %v", g, serial, par)
		}
	}
}

// lockAcrossVaults takes 32 distinct locks across 32 vaults on a fresh
// simulator and checks every response and the final lock blocks.
func lockAcrossVaults() (struct{}, error) {
	var none struct{}
	s, err := New(FourLink4GB())
	if err != nil {
		return none, err
	}
	if err := s.LoadCMC("hmc_fetchadd_compiled_check"); err == nil {
		return none, fmt.Errorf("unexpected registry op")
	}
	for _, name := range []string{"hmc_lock", "hmc_unlock"} {
		if err := s.LoadCMC(name); err != nil {
			return none, err
		}
	}
	for i := 0; i < 32; i++ {
		r, err := BuildCMC(hmccmd.CMC125, 0, uint64(i)*64, uint16(i), i%4, []uint64{uint64(i) + 1, 0})
		if err != nil {
			return none, err
		}
		if err := s.Send(i%4, r); err != nil {
			return none, err
		}
	}
	done := 0
	for c := 0; c < 20 && done < 32; c++ {
		s.Clock()
		for link := 0; link < 4; link++ {
			for {
				rsp, ok := s.Recv(link)
				if !ok {
					break
				}
				if rsp.Payload[0] != 1 {
					return none, fmt.Errorf("lock %d failed", rsp.TAG)
				}
				ReleaseRsp(rsp)
				done++
			}
		}
	}
	if done != 32 {
		return none, fmt.Errorf("%d locks completed", done)
	}
	d, err := s.Device(0)
	if err != nil {
		return none, err
	}
	for i := 0; i < 32; i++ {
		blk, err := d.Store().ReadBlock(uint64(i) * 64)
		if err != nil {
			return none, err
		}
		if blk.Lo != 1 || blk.Hi != uint64(i)+1 {
			return none, fmt.Errorf("lock %d state %+v", i, blk)
		}
	}
	return none, nil
}

// TestParallelClockCMCSafety: CMC operations execute correctly on one
// simulator and on simulators clocked in parallel (CMC tables are per
// simulator).
func TestParallelClockCMCSafety(t *testing.T) {
	if _, err := lockAcrossVaults(); err != nil {
		t.Fatal(err)
	}
	clockInParallel(t, lockAcrossVaults)
}

// tracedMutex is one run of the full mutex algorithm with every trace
// level enabled, with its trace bytes.
type tracedMutex struct {
	run   MutexRun
	trace []byte
}

// TestParallelClockCMCHeavyTraced is the shared-state audit workload:
// the full mutex algorithm (hot-spot CMC contention, spin traffic,
// stateful lock block) with every trace level enabled, on simulators
// clocked in parallel, each with its own tracer. Every run must
// reproduce the serial result and its trace byte for byte.
func TestParallelClockCMCHeavyTraced(t *testing.T) {
	runTraced := func() (tracedMutex, error) {
		var buf bytes.Buffer
		tracer := NewJSONLTracer(&buf, TraceAll)
		run, err := RunMutex(FourLink4GB(), 48, 0x40, WithTracer(tracer))
		if err != nil {
			return tracedMutex{}, err
		}
		if err := tracer.Flush(); err != nil {
			return tracedMutex{}, err
		}
		return tracedMutex{run, buf.Bytes()}, nil
	}
	serial, err := runTraced()
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.trace) == 0 {
		t.Fatal("tracing produced no events")
	}
	for g, par := range clockInParallel(t, runTraced) {
		if par.run != serial.run {
			t.Errorf("simulator %d: traced runs diverge:\nserial   %+v\nparallel %+v", g, serial.run, par.run)
		}
		if !bytes.Equal(par.trace, serial.trace) {
			t.Errorf("simulator %d: traces diverge (%d vs %d bytes)", g, len(serial.trace), len(par.trace))
		}
	}
}
