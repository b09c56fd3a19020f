package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// metricDecl is one metric the benchmark reports. The two lists below
// are the benchmark's contract: BENCHMARK.json declares the same names
// and units (TestDeclaredMetricsMatchBenchmarkJSON pins that), every
// workload prints every end-to-end metric in an untraced run and every
// per-layer metric in a traced run.
type metricDecl struct {
	name, unit string
}

// endToEnd are the figures a user of the simulator waits for. Every one
// is defined on every workload (README.md gives the mapping), because a
// record must carry the full set.
var endToEnd = []metricDecl{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"ops_per_s_serial", "1/s"},
	{"op_p50_us", "us"},
	{"op_p99_us", "us"},
	{"sim_cycles_per_s", "1/s"},
	{"heap_mb", "MB"},
	{"heap_per_session_kb", "KB"},
	{"table6_avg_err_pct", "%"},
}

// serverOps are the protocol operations whose client-side call time,
// server-side execution time and difference the hmcd workloads report.
var serverOps = []string{"send", "clock_until_recv", "recv", "batch", "init", "close"}

// replayOps are the operations whose in-process simulator time the hmcd
// replay measures (batch is the sum of its three sub-operations).
var replayOps = []string{"send", "clock_until_recv", "recv", "batch"}

// deviceCounts are the Device.Stats fields reported as exact per-op
// counts.
var deviceCounts = []string{
	"rqsts_read", "rqsts_write", "rqsts_atomic", "rqsts_cmc",
	"rqst_flits", "rsp_flits", "bank_conflicts", "xbar_backpressure",
	"rsp_backpressure", "link_ser_stalls",
}

// perLayer lists the single-layer metrics of a traced run, named
// <module>.<metric>.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDecl {
	ds := []metricDecl{
		{"workload.point_us_p50", "us"},
		{"workload.point_us_p99", "us"},
		{"workload.session_new_ms", "ms"},
		{"workload.worker_busy_ratio", "ratio"},
		{"workload.sim_cycles_per_point", "cycles"},
		{"workload.trylocks_per_point", "count"},
		{"sim.send_ns", "ns"},
		{"sim.clock_ns", "ns"},
		{"sim.recv_ns", "ns"},
		{"sim.send_share", "ratio"},
		{"sim.clock_share", "ratio"},
		{"sim.recv_share", "ratio"},
		{"sim.cycles_per_op", "cycles"},
		{"sim.send_stalls_per_op", "count"},
	}
	for _, c := range deviceCounts {
		ds = append(ds, metricDecl{"device." + c, "count"})
	}
	ds = append(ds, metricDecl{"mem.allocated_mb", "MB"})
	for _, kind := range []string{"call_us_p50", "call_us_p99", "exec_us", "hop_us"} {
		for _, op := range serverOps {
			ds = append(ds, metricDecl{"server." + kind + "." + op, "us"})
		}
	}
	for _, op := range replayOps {
		ds = append(ds, metricDecl{"server.replay_sim_us." + op, "us"})
	}
	return append(ds,
		metricDecl{"server.wire_bytes_per_op", "B"},
		metricDecl{"server.wire_writes_per_op", "count"},
		metricDecl{"server.protocol_errors", "count"},
		metricDecl{"server.conns_dropped", "count"},
		metricDecl{"go.allocs_per_op", "count"},
		metricDecl{"go.alloc_bytes_per_op", "B"},
		metricDecl{"go.gc_per_kop", "count"},
		metricDecl{"go.gc_pause_ms", "ms"},
		metricDecl{"trace.overhead_pct", "%"},
		metricDecl{"trace.spans", "count"},
		metricDecl{"trace.root_self_share", "ratio"},
	)
}

// validName reports whether s is a legal metric name: it starts with a
// letter or digit and is at most 64 characters of [A-Za-z0-9_.-].
func validName(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if !alnum && (i == 0 || c != '_' && c != '.' && c != '-') {
			return false
		}
	}
	return true
}

// metricValue is one reported figure.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect builds the metrics object for decls from vals. A declared
// metric the workload left unset reports 0 (README.md states which do
// not apply where); a value outside decls, an invalid name or a
// non-finite value is a benchmark bug.
func collect(decls []metricDecl, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(decls))
	known := make(map[string]bool, len(decls))
	for _, d := range decls {
		if !validName(d.name) {
			return nil, fmt.Errorf("invalid metric name %q", d.name)
		}
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
		known[d.name] = true
	}
	var extra []string
	for name := range vals {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("undeclared metrics %s", strings.Join(extra, ", "))
	}
	return out, nil
}

// tailCandidates are the percentiles a timing may be reported at,
// highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// tailPct returns the highest candidate percentile not above want that
// leaves at least ten of n samples beyond it, or 0 when even the median
// does not.
func tailPct(n int, want float64) float64 {
	for _, p := range tailCandidates {
		if p > want {
			continue
		}
		if n-rank(n, p) >= 10 {
			return p
		}
	}
	return 0
}

// rank is the 1-based nearest-rank position of percentile p among n
// sorted samples. It computes in integer thousandths, so p99.9 of 10000
// samples is rank 9990 exactly.
func rank(n int, p float64) int {
	permil := int(math.Round(p * 10))
	r := (permil*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank percentile p of sorted.
func percentile(sorted []uint32, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[rank(len(sorted), p)-1])
}

// latencySummary sorts samples (nanoseconds) and reports the median and
// the tail at want (or the highest percentile the sample count
// supports), both in microseconds, with the percentile used.
func latencySummary(samples []uint32, want float64) (p50, tail, tailAt float64) {
	slices.Sort(samples)
	tailAt = tailPct(len(samples), want)
	if tailAt == 0 {
		return percentile(samples, 50) / 1e3, 0, 0
	}
	return percentile(samples, 50) / 1e3, percentile(samples, tailAt) / 1e3, tailAt
}

// quartiles returns the first quartile, median and third quartile of xs
// by nearest rank, leaving xs sorted.
func quartiles(xs []float64) [3]float64 {
	if len(xs) == 0 {
		return [3]float64{}
	}
	sort.Float64s(xs)
	q := func(p float64) float64 { return xs[int(math.Ceil(p*float64(len(xs))))-1] }
	return [3]float64{q(0.25), median(xs), q(0.75)}
}

// median returns the median of xs (mean of the middle pair for even
// counts), leaving xs sorted.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// ratio returns a/b, or 0 when b is zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
