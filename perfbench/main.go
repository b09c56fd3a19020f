// Command perfbench is hmcsim's end-to-end benchmark. It runs one
// workload against the simulator's public entry points (the workload
// sessions, the in-process Simulator, and the hmcd session server over
// a real Unix socket), checks every output, and prints one JSON record
// as its last line of standard output:
//
//	go build -o perfbench . && ./perfbench --workload inproc-mix --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the record holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics of a traced run, and the spans are
// written under --out. README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	_ "repro/cmcops"
)

// An untraced run builds the workload from scratch at least
// minSetupReps times, and until minSetupTime of setups has been measured
// (at most maxSetupReps); setup_s is their median. A workload that sets
// up in milliseconds thus gets enough samples for a steady median.
const (
	minSetupReps = 5
	maxSetupReps = 100
	minSetupTime = time.Second
)

// bench is one workload. The harness builds it, alternates measurement
// windows, and lets it check its outputs and add its per-layer figures.
type bench interface {
	// setup builds the workload's system from scratch and warms it.
	setup(ts *traceSet) error
	// window runs drivers closed-loop drivers, each on tracer
	// ts.driver(i), for about d (mutex-sweep: one full sweep).
	window(drivers int, d time.Duration, ts *traceSet) (win, error)
	// sessions is the number of live simulator sessions.
	sessions() int
	// ownBytes is the heap the benchmark itself holds after a window
	// (shadow copies, logs, buffers), which heap_mb leaves out.
	ownBytes() uint64
	// finish runs the output checks and the exact-count pass, and adds
	// the workload's figures to r.
	finish(r *report, ts *traceSet) error
	// params describes the workload for the run metadata.
	params() map[string]any
	close()
}

// win is what one measurement window did.
type win struct {
	ops, failed int64
	wall        time.Duration
	cycles      uint64
	// busy is the summed time drivers spent inside calls to the program.
	busy time.Duration
	// lat holds one latency sample per op (nanoseconds), one slice per
	// driver. The slices are the drivers' own buffers: they are valid
	// until the next window.
	lat [][]uint32
}

func (w win) rate() float64 { return ratio(float64(w.ops), w.wall.Seconds()) }

// add accumulates o's work and time into w.
func (w *win) add(o win) {
	w.ops += o.ops
	w.wall += o.wall
	w.cycles += o.cycles
	w.busy += o.busy
}

// report accumulates a run's figures and check outcomes.
type report struct {
	vals              map[string]float64
	attempted, failed int64
	problems          []string
	meta              map[string]any
}

// fail records a failed check; the record then reads correct=false.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measured phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for spans and the server socket")
	flag.Parse()
	o.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 || o.seconds < 1 {
		fatal(errors.New("--trace must be 0 or 1 and --seconds at least 1"))
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fatal(err)
	}
	rec, err := run(o)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

var workloadNames = []string{"mutex-sweep", "inproc-mix", "hmcd-json", "hmcd-batch"}

func newBench(o options) (bench, error) {
	switch o.workload {
	case "mutex-sweep":
		return newSweepBench(), nil
	case "inproc-mix":
		return newMixBench(o.seed), nil
	case "hmcd-json":
		return newHmcdBench(o, false), nil
	case "hmcd-batch":
		return newHmcdBench(o, true), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
}

// record is the last line the benchmark prints.
type record struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// drivers is the closed-loop driver count of a parallel window: one per
// schedulable core, never more than the host has.
func drivers() int {
	n := runtime.GOMAXPROCS(0)
	if c := runtime.NumCPU(); c < n {
		n = c
	}
	return n
}

// windowLength splits the measured phase into serial/parallel window
// pairs of at most half a second, at least four of them, so both kinds
// of window see the same stretches of host speed.
func windowLength(seconds int) time.Duration {
	d := time.Duration(seconds) * time.Second / 8
	if d > 250*time.Millisecond {
		d = 250 * time.Millisecond
	}
	return d
}

func run(o options) (record, error) {
	p := drivers()
	ts := newTraceSet(p)
	r := &report{vals: map[string]float64{}, meta: map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(), "drivers": p,
		"go_version": runtime.Version(), "git_commit": gitCommit("."),
	}}
	b, heapBase, err := setUp(o, ts, r)
	if err != nil {
		return record{}, err
	}
	r.meta["params"] = b.params()
	if o.trace {
		err = measureTraced(b, o, p, ts, r)
	} else {
		err = measure(b, o, p, heapBase, ts, r)
	}
	if err != nil {
		b.close()
		return record{}, err
	}
	if err := b.finish(r, ts); err != nil {
		b.close()
		return record{}, err
	}
	b.close()
	decls := endToEnd
	if o.trace {
		decls = perLayer
		r.vals["trace.spans"] = float64(ts.spans())
		path := filepath.Join(o.out, "spans-"+o.workload+".jsonl")
		if err := ts.write(path, r.meta); err != nil {
			return record{}, fmt.Errorf("writing spans: %w", err)
		}
		r.meta["spans_file"] = path
	}
	// finish also reports figures of the other record kind (the
	// exact counts, table6 on traced runs); keep only this run's set.
	vals := map[string]float64{}
	for _, d := range decls {
		if v, ok := r.vals[d.name]; ok {
			vals[d.name] = v
		}
	}
	ms, err := collect(decls, vals)
	if err != nil {
		return record{}, err
	}
	r.meta["problems"] = r.problems
	meta, err := json.Marshal(map[string]any{"meta": r.meta})
	if err != nil {
		return record{}, err
	}
	fmt.Println(string(meta))
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	if r.attempted < 1 {
		return record{}, errors.New("no operation was attempted")
	}
	return record{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   ms,
	}, nil
}

// setUp builds the workload: repeatedly from scratch in an untraced run
// (setup_s is the median, and the last build is the one measured), once
// with tracing on in a traced run. It also returns the in-use heap just
// before the last build.
func setUp(o options, ts *traceSet, r *report) (bench, uint64, error) {
	minReps, total := minSetupReps, time.Duration(0)
	if o.trace {
		minReps = 1
		ts.setOn(true)
		defer ts.setOn(false)
	}
	var setups []float64
	var b bench
	var base uint64
	for len(setups) < minReps || !o.trace && total < minSetupTime && len(setups) < maxSetupReps {
		if b != nil {
			b.close()
		}
		base = heapInuse()
		var err error
		if b, err = newBench(o); err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		if err := b.setup(ts); err != nil {
			b.close()
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0)
		total += d
		setups = append(setups, d.Seconds())
	}
	r.meta["setup_s_quartiles"] = quartiles(append([]float64(nil), setups...))
	r.meta["setup_reps"] = len(setups)
	r.vals["setup_s"] = median(setups)
	return b, base, nil
}

// heapInuse collects garbage and returns the in-use heap. Two cycles
// also empty the sync.Pool victim caches, so pooled buffers do not
// count on either side of a difference.
func heapInuse() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapInuse
}

// measure is the untraced run behind the end-to-end metrics. heapBase
// is the in-use heap before the workload was built.
func measure(b bench, o options, p int, heapBase uint64, ts *traceSet, r *report) error {
	d := windowLength(o.seconds)
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	var serRates, parRates []float64
	var ser, par win
	var lat, serLat []uint32
	for len(parRates) == 0 || time.Now().Before(deadline) {
		ws, err := b.window(1, d, ts)
		if err != nil {
			return err
		}
		serLat = appendAll(serLat, ws.lat)
		wp, err := b.window(p, d, ts)
		if err != nil {
			return err
		}
		lat = appendAll(lat, wp.lat)
		for _, w := range []win{ws, wp} {
			r.attempted += w.ops
			r.failed += w.failed
		}
		serRates = append(serRates, ws.rate())
		parRates = append(parRates, wp.rate())
		ser.add(ws)
		par.add(wp)
	}
	sp50, sp99, _ := latencySummary(serLat, 99)
	r.meta["serial_op_p50_us"], r.meta["serial_op_p99_us"] = sp50, sp99
	r.meta["ops_per_s_window_quartiles"] = quartiles(append([]float64(nil), parRates...))
	r.meta["ops_per_s_serial_window_quartiles"] = quartiles(append([]float64(nil), serRates...))
	// Throughput is all the work over all the time, so faster and
	// slower stretches of host speed average out.
	r.vals["ops_per_s_serial"] = ser.rate()
	r.vals["ops_per_s"] = par.rate()
	r.vals["sim_cycles_per_s"] = ratio(float64(par.cycles), par.wall.Seconds())
	// Latency percentiles pool every sample of the parallel windows.
	p50, tail, at := latencySummary(lat, 99)
	r.vals["op_p50_us"], r.vals["op_p99_us"] = p50, tail
	r.meta["windows"] = len(parRates)
	r.meta["latency_samples"] = len(lat)
	// A run too short for ten samples beyond p99 reports a lower tail,
	// and says which.
	r.meta["op_p99_us_percentile"] = at
	lat, serLat = nil, nil

	// The workload's heap: everything in use beyond what was in use
	// before it was built, less the benchmark's own structures.
	inuse, own := heapInuse(), b.ownBytes()
	r.meta["heap_base_mb"] = float64(heapBase) / (1 << 20)
	r.meta["heap_benchmark_own_mb"] = float64(own) / (1 << 20)
	heap := (float64(inuse) - float64(heapBase) - float64(own)) / (1 << 20)
	r.vals["heap_mb"] = heap
	r.vals["heap_per_session_kb"] = heap * 1024 / float64(b.sessions())
	return nil
}

// appendAll appends every driver's samples of a window to dst.
func appendAll(dst []uint32, lat [][]uint32) []uint32 {
	for _, l := range lat {
		dst = append(dst, l...)
	}
	return dst
}

// measureTraced is the traced run behind the per-layer metrics: traced
// and untraced windows alternate at full driver count, so their
// throughput gap is the tracing overhead, and the Go runtime counters
// are read across the untraced windows only.
func measureTraced(b bench, o options, p int, ts *traceSet, r *report) error {
	d := windowLength(o.seconds)
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	var plain, traced win
	var gcs, pauses, allocs, bytes uint64
	var before, after runtime.MemStats
	var serLat []uint32
	_, isSweep := b.(*sweepBench)
	windows := 0
	for windows == 0 || time.Now().Before(deadline) {
		windows++
		runtime.ReadMemStats(&before)
		wu, err := b.window(p, d, ts)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		allocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
		gcs += uint64(after.NumGC - before.NumGC)
		pauses += after.PauseTotalNs - before.PauseTotalNs

		ts.setOn(true)
		wt, err := b.window(p, d, ts)
		var wSer win
		if err == nil && isSweep {
			// Point times that move the serial sweep rate come from an
			// uncontended sweep.
			wSer, err = b.window(1, d, ts)
		}
		ts.setOn(false)
		if err != nil {
			return err
		}
		for _, w := range []win{wu, wt, wSer} {
			r.attempted += w.ops
			r.failed += w.failed
		}
		plain.add(wu)
		traced.add(wt)
		serLat = appendAll(serLat, wSer.lat)
	}
	un, tr := plain.rate(), traced.rate()
	r.vals["trace.overhead_pct"] = ratio(un-tr, un) * 100
	ops := float64(plain.ops)
	r.vals["go.allocs_per_op"] = ratio(float64(allocs), ops)
	r.vals["go.alloc_bytes_per_op"] = ratio(float64(bytes), ops)
	r.vals["go.gc_per_kop"] = ratio(float64(gcs)*1000, ops)
	r.vals["go.gc_pause_ms"] = ratio(float64(pauses), float64(gcs)) / 1e6
	r.meta["windows"] = windows
	if isSweep {
		r.vals["workload.worker_busy_ratio"] = ratio(traced.busy.Seconds(), float64(p)*traced.wall.Seconds())
		p50, p99, at := latencySummary(serLat, 99)
		r.vals["workload.point_us_p50"], r.vals["workload.point_us_p99"] = p50, p99
		r.meta["point_samples"] = len(serLat)
		r.meta["point_us_p99_percentile"] = at
	}
	return nil
}

// fanout runs fn for drivers k = 0..n-1 on their own goroutines.
func fanout(n int, fn func(k int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			errs[k] = fn(k)
		}(k)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// gitCommit reads the checked-out commit from root's .git directory, or
// reports "unknown" when root is not a git work tree.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
