package hmcsim

import (
	"fmt"
	"strings"
	"testing"
)

// A pooled simulator — one recycled through Reset between runs, the way
// the sweep runners and the session server reuse them — must be
// invisible in every workload result: it keeps its response free lists,
// store pages and queue backing across runs, and none of that may leak
// into the next run. This test pins that for all six workloads on both
// paper configurations, comparing the full workload result structs and
// every device's final report against a freshly built simulator.

// captureWorkload renders everything observable from one workload run —
// the workload's own result struct plus each device's report — into one
// comparable string.
func captureWorkload(res any, s *Simulator) string {
	var b strings.Builder
	fmt.Fprintf(&b, "result=%+v\n", res)
	for _, d := range s.Devices() {
		fmt.Fprintf(&b, "dev%d %s", d.ID, d.BuildReport().String())
	}
	return b.String()
}

// TestSerialPooledWorkloadEquivalence compares each workload on a fresh
// simulator against the same workload on one pooled session per preset.
// The session serves the workloads in order, so every pooled run starts
// from the free lists and pages the previous, different workload left
// behind.
func TestSerialPooledWorkloadEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload equivalence matrix is not short")
	}
	configs := []struct {
		name string
		cfg  Config
	}{
		{"4Link-4GB", FourLink4GB()},
		{"8Link-8GB", EightLink8GB()},
	}
	for _, c := range configs {
		cfg := c.cfg
		pool, err := NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		trace := GenerateStrideTrace(0, 512)
		workloads := []struct {
			name   string
			serial func(opts ...Option) (any, error)
			pooled func(ss *Session) (any, error)
		}{
			{"mutex",
				func(opts ...Option) (any, error) { return RunMutex(cfg, 24, 0x40, opts...) },
				func(ss *Session) (any, error) { return ss.Mutex(24, 0x40) }},
			{"stream",
				func(opts ...Option) (any, error) { return RunStream(cfg, 16, 128, 1.25, opts...) },
				func(ss *Session) (any, error) { return ss.Stream(16, 128, 1.25) }},
			{"gups",
				func(opts ...Option) (any, error) { return RunGUPS(cfg, GUPSAtomic, 16, 4096, 1024, opts...) },
				func(ss *Session) (any, error) { return ss.GUPS(GUPSAtomic, 16, 4096, 1024) }},
			{"bfs",
				func(opts ...Option) (any, error) { return RunBFS(cfg, BFSCMC, 8, 300, 4, 1, opts...) },
				func(ss *Session) (any, error) { return ss.BFS(BFSCMC, 8, 300, 4, 1) }},
			{"replay",
				func(opts ...Option) (any, error) { return RunReplay(cfg, 8, trace, opts...) },
				func(ss *Session) (any, error) { return ss.Replay(8, trace) }},
			{"rwlock",
				func(opts ...Option) (any, error) { return RunRWLock(cfg, 8, 4, 5, opts...) },
				func(ss *Session) (any, error) { return ss.RWLock(8, 4, 5) }},
		}
		for _, w := range workloads {
			t.Run(c.name+"/"+w.name, func(t *testing.T) {
				var fresh *Simulator
				res, err := w.serial(WithObserver(func(s *Simulator) { fresh = s }))
				if err != nil {
					t.Fatal(err)
				}
				serial := captureWorkload(res, fresh)
				res, err = w.pooled(pool)
				if err != nil {
					t.Fatal(err)
				}
				pooled := captureWorkload(res, pool.Sim())
				if serial != pooled {
					t.Errorf("serial and pooled runs diverge:\n--- serial\n%s\n--- pooled\n%s", serial, pooled)
				}
			})
		}
		pool.Close()
	}
}
