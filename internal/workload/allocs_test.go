package workload

import (
	"testing"

	"repro/internal/config"
)

// TestSessionMutexPointZeroAlloc pins the warm sweep point: once a
// Session has run a thread count, rerunning it allocates nothing —
// every response comes from, and returns to, its device's own free
// list.
func TestSessionMutexPointZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are meaningless under -race")
	}
	for _, cfg := range []config.Config{config.FourLink4GB(), config.EightLink8GB()} {
		ss, err := NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{2, 50, 100} {
			point := func() {
				if _, err := ss.Mutex(threads, 0x40); err != nil {
					t.Fatal(err)
				}
			}
			point()
			if got := testing.AllocsPerRun(20, point); got != 0 {
				t.Errorf("%s threads %d: %.1f allocs per warm point, want 0", cfg, threads, got)
			}
		}
	}
}
