package main

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/config"
	"repro/internal/device"
	"repro/internal/hmccmd"
	"repro/internal/workload"
)

// The paper's mutex evaluation: Algorithm 1 at threads 2..100 on both
// device presets, all threads contending on one lock block.
const (
	sweepLo, sweepHi = 2, 100
	sweepPoints      = sweepHi - sweepLo + 1
	lockAddr         = 0x40
)

// paperTableVI is the paper's Table VI: MIN/MAX/AVG cycle counts over the
// whole sweep.
var paperTableVI = []tableVI{
	{"4Link-4GB", 6, 392, 226.48},
	{"8Link-8GB", 6, 387, 221.48},
}

// simulatedTableVI is the signature this simulator reproduces. Any change
// to it is a cycle-model change, not a speed-up.
var simulatedTableVI = []tableVI{
	{"4Link-4GB", 6, 304, 154.98},
	{"8Link-8GB", 6, 304, 154.86},
}

type tableVI struct {
	preset   string
	min, max uint64
	avg      float64
}

func sweepPresets() []config.Config {
	return []config.Config{config.FourLink4GB(), config.EightLink8GB()}
}

// checkTableVI compares a sweep's extrema with the reproduced signature
// of preset i (the average to the paper's two decimals).
func checkTableVI(i int, got tableVI) error {
	want := simulatedTableVI[i]
	if got.min != want.min || got.max != want.max || fmt.Sprintf("%.2f", got.avg) != fmt.Sprintf("%.2f", want.avg) {
		return fmt.Errorf("table VI %s: got %d/%d/%.2f, want %d/%d/%.2f",
			want.preset, got.min, got.max, got.avg, want.min, want.max, want.avg)
	}
	return nil
}

// table6ErrPct is the mean relative error of the simulated Table VI
// averages against the paper's, in percent.
func table6ErrPct(got []tableVI) float64 {
	var sum float64
	for i, g := range got {
		sum += math.Abs(g.avg-paperTableVI[i].avg) / paperTableVI[i].avg * 100
	}
	return sum / float64(len(got))
}

// extrema summarizes one preset's points the way Table VI does.
func extrema(name string, runs []workload.MutexRun) tableVI {
	r := workload.MutexSweepResult{Runs: runs}
	minC, maxC, avg := r.TableVI()
	return tableVI{name, minC, maxC, avg}
}

// sweepTable runs the full sweep serially on fresh sessions, checks the
// signature and returns Table VI. Workloads other than mutex-sweep run
// it after their measured phase so every record carries the model's
// accuracy beside its speed.
func sweepTable(r *report) ([]tableVI, error) {
	var out []tableVI
	for i, cfg := range sweepPresets() {
		res, err := workload.MutexSweep(cfg, sweepLo, sweepHi, lockAddr)
		if err != nil {
			return nil, fmt.Errorf("table VI sweep: %w", err)
		}
		t := extrema(paperTableVI[i].preset, res.Runs)
		r.attempted++
		if err := checkTableVI(i, t); err != nil {
			r.failed++
			r.fail("%v", err)
		}
		out = append(out, t)
	}
	return out, nil
}

// pointResult is everything one sweep point produced; every sweep must
// reproduce the first one exactly.
type pointResult struct {
	run    workload.MutexRun
	cycles uint64
	stats  device.Stats
}

// sweepBench is the mutex-sweep workload: one workload.Session per
// worker and preset, reused across points and sweeps.
type sweepBench struct {
	sess [][]*workload.Session // [worker][preset]
	ref  []pointResult         // the first sweep, presets back to back
	// newMs are the NewSession times of setup.
	newMs []float64
}

func newSweepBench() *sweepBench { return &sweepBench{} }

func (b *sweepBench) params() map[string]any {
	return map[string]any{
		"presets": []string{"4Link-4GB", "8Link-8GB"}, "threads": fmt.Sprintf("%d..%d", sweepLo, sweepHi),
		"lock_addr": lockAddr, "points_per_sweep": 2 * sweepPoints,
		"parallel_workers": drivers(), "op": "one sweep point (Session.Mutex)",
	}
}

func (b *sweepBench) sessions() int { return len(b.sess) * len(sweepPresets()) }

// ownBytes is the heap the benchmark itself holds: the reference sweep.
func (b *sweepBench) ownBytes() uint64 {
	return uint64(cap(b.ref)) * uint64(unsafe.Sizeof(pointResult{}))
}

func (b *sweepBench) setup(ts *traceSet) error {
	tr := ts.main()
	for w := 0; w < drivers(); w++ {
		var row []*workload.Session
		for _, cfg := range sweepPresets() {
			t0 := time.Now()
			tr.begin(spSessionNew, uint64(w))
			ss, err := workload.NewSession(cfg)
			tr.end()
			if err != nil {
				return err
			}
			b.newMs = append(b.newMs, float64(time.Since(t0))/1e6)
			// Warm-up: the largest point grows every session scratch
			// buffer to its final size.
			if _, err := ss.Mutex(sweepHi, lockAddr); err != nil {
				return err
			}
			row = append(row, ss)
		}
		b.sess = append(b.sess, row)
	}
	return nil
}

// window runs one full sweep (both presets) across workers sessions.
func (b *sweepBench) window(workers int, _ time.Duration, ts *traceSet) (win, error) {
	res := make([]pointResult, 0, 2*sweepPoints)
	var w win
	var lat []uint32
	start := time.Now()
	for p := range sweepPresets() {
		out := make([]pointResult, sweepPoints)
		durs := make([]uint32, sweepPoints)
		busy := make([]time.Duration, workers)
		var next atomic.Int64
		err := fanout(workers, func(k int) error {
			ss, tr := b.sess[k][p], ts.driver(k)
			for {
				i := int(next.Add(1)) - 1
				if i >= sweepPoints {
					return nil
				}
				t0 := time.Now()
				tr.begin(spPoint, uint64(p*sweepPoints+i))
				run, err := ss.Mutex(sweepLo+i, lockAddr)
				tr.end()
				d := time.Since(t0)
				if err != nil {
					return fmt.Errorf("threads=%d: %w", sweepLo+i, err)
				}
				busy[k] += d
				durs[i] = clampNs(int64(d))
				s := ss.Sim()
				out[i] = pointResult{run: run, cycles: s.Cycle(), stats: s.Devices()[0].Stats()}
			}
		})
		if err != nil {
			return w, err
		}
		for _, d := range busy {
			w.busy += d
		}
		res = append(res, out...)
		lat = append(lat, durs...)
	}
	w.wall = time.Since(start)
	w.lat = [][]uint32{lat}
	w.ops = int64(len(res))
	if b.ref == nil {
		b.ref = res
	}
	for i := range res {
		w.cycles += res[i].cycles
		if res[i] != b.ref[i] {
			w.failed++
		}
	}
	return w, nil
}

func (b *sweepBench) finish(r *report, ts *traceSet) error {
	var tables []tableVI
	for p := range sweepPresets() {
		runs := make([]workload.MutexRun, sweepPoints)
		for i := range runs {
			runs[i] = b.ref[p*sweepPoints+i].run
		}
		t := extrema(paperTableVI[p].preset, runs)
		if err := checkTableVI(p, t); err != nil {
			r.fail("%v", err)
		}
		tables = append(tables, t)
	}
	r.vals["table6_avg_err_pct"] = table6ErrPct(tables)
	r.meta["table6"] = fmt.Sprint(tables)

	var cycles, trylocks uint64
	var st device.Stats
	for _, pr := range b.ref {
		cycles += pr.cycles
		trylocks += pr.run.Trylocks
		addStats(&st, pr.stats)
	}
	n := float64(len(b.ref))
	r.vals["workload.sim_cycles_per_point"] = float64(cycles) / n
	r.vals["workload.trylocks_per_point"] = float64(trylocks) / n
	putDeviceCounts(r, st, n)
	r.vals["workload.session_new_ms"] = median(append([]float64(nil), b.newMs...))
	var alloc uint64
	for _, row := range b.sess {
		for _, ss := range row {
			alloc += ss.Sim().Devices()[0].Store().AllocatedBytes()
		}
	}
	r.vals["mem.allocated_mb"] = float64(alloc) / (1 << 20)
	return nil
}

func (b *sweepBench) close() {
	for _, row := range b.sess {
		for _, ss := range row {
			ss.Close()
		}
	}
	b.sess = nil
}

// addStats accumulates the counters reported as device.*.
func addStats(dst *device.Stats, s device.Stats) {
	for i := range dst.Rqsts {
		dst.Rqsts[i] += s.Rqsts[i]
	}
	dst.RqstFlits += s.RqstFlits
	dst.RspFlits += s.RspFlits
	dst.BankConflicts += s.BankConflicts
	dst.XbarBackpressure += s.XbarBackpressure
	dst.RspBackpressure += s.RspBackpressure
	dst.LinkSerStalls += s.LinkSerStalls
	dst.SendStalls += s.SendStalls
}

// putDeviceCounts reports st as per-op device.* counts over ops.
func putDeviceCounts(r *report, st device.Stats, ops float64) {
	vals := []uint64{
		st.Rqsts[hmccmd.ClassRead],
		st.Rqsts[hmccmd.ClassWrite] + st.Rqsts[hmccmd.ClassPostedWrite],
		st.Rqsts[hmccmd.ClassAtomic] + st.Rqsts[hmccmd.ClassPostedAtomic],
		st.Rqsts[hmccmd.ClassCMC],
		st.RqstFlits, st.RspFlits, st.BankConflicts, st.XbarBackpressure,
		st.RspBackpressure, st.LinkSerStalls,
	}
	for i, c := range deviceCounts {
		r.vals["device."+c] = float64(vals[i]) / ops
	}
}
