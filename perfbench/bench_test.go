package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestTailPct(t *testing.T) {
	cases := []struct {
		n          int
		want, tail float64
	}{
		{1000, 99, 99},      // rank 990 leaves exactly ten beyond
		{999, 99, 95},       // p99 leaves nine
		{10000, 99.9, 99.9}, // rank 9990 leaves ten
		{9999, 99.9, 99},
		{10000, 99, 99}, // never above the percentile asked for
		{200, 99, 95},
		{100, 99, 90},
		{20, 99, 50},
		{19, 99, 0},
		{0, 99, 0},
	}
	for _, c := range cases {
		if got := tailPct(c.n, c.want); got != c.tail {
			t.Errorf("tailPct(%d, %g) = %g, want %g", c.n, c.want, got, c.tail)
		}
	}
}

func TestLatencySummary(t *testing.T) {
	var s []uint32
	for i := 1000; i >= 1; i-- {
		s = append(s, uint32(i*1000))
	}
	p50, tail, at := latencySummary(s, 99)
	if p50 != 500 || tail != 990 || at != 99 {
		t.Fatalf("latencySummary = %g, %g at p%g; want 500, 990 at p99", p50, tail, at)
	}
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"setup_s", "server.call_us_p50.clock_until_recv", "go.gc-pause", "9lives"} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", ".hidden", "_x", "-x", "a b", "p99/us", "ops{op=send}", string(make([]byte, 65))} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
}

func TestDeclaredNamesValidAndUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDecl(nil), endToEnd...), perLayer...) {
		if !validName(d.name) {
			t.Errorf("invalid metric name %q", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric %q declared twice", d.name)
		}
		seen[d.name] = true
	}
}

func TestCollect(t *testing.T) {
	decls := []metricDecl{{"a", "s"}, {"b.c", "count"}}
	ms, err := collect(decls, map[string]float64{"a": 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if ms["a"] != (metricValue{1.5, "s"}) || ms["b.c"] != (metricValue{0, "count"}) {
		t.Fatalf("collect = %v", ms)
	}
	if _, err := collect(decls, map[string]float64{"a": 1, "undeclared": 2}); err == nil {
		t.Error("collect accepted an undeclared metric")
	}
	if _, err := collect([]metricDecl{{"bad name", "s"}}, nil); err == nil {
		t.Error("collect accepted an invalid name")
	}
}

// TestDeclaredMetricsMatchBenchmarkJSON pins the metric lists to the
// benchmark's declaration at the repository root.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []metricDecl) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, benchmark %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloadNames[i])
		}
	}
}

func TestShadowCatchesFlippedByte(t *testing.T) {
	m := make(shadow, 64)
	rng := splitmix(7)
	for i := range m {
		m[i] = rng.next()
	}
	payload := append([]uint64(nil), m[8:16]...) // a 64-byte read at 0x40
	if err := m.check(0x40, payload); err != nil {
		t.Fatalf("intact payload rejected: %v", err)
	}
	for word := range payload {
		for byteIdx := 0; byteIdx < 8; byteIdx++ {
			bad := append([]uint64(nil), payload...)
			bad[word] ^= 1 << (8 * byteIdx)
			if m.check(0x40, bad) == nil {
				t.Fatalf("flipped byte %d of word %d went unnoticed", byteIdx, word)
			}
		}
	}
}

func TestShadowApply(t *testing.T) {
	m := make(shadow, 8)
	m.apply(opWR64, 0, []uint64{1, 2, 3, 4, 5, 6, ^uint64(0), 7})
	m.apply(opINC8, 8, nil)
	m.apply(opADD16, 48, []uint64{1, 10}) // 0x30: the low word wraps and carries into the high word
	want := shadow{1, 3, 3, 4, 5, 6, 0, 18}
	for i := range want {
		if m[i] != want[i] {
			t.Fatalf("shadow = %v, want %v", m, want)
		}
	}
}

func TestTableVIRejectsWrongSignature(t *testing.T) {
	for i, sig := range simulatedTableVI {
		if err := checkTableVI(i, sig); err != nil {
			t.Errorf("reproduced signature rejected: %v", err)
		}
		for _, bad := range []tableVI{
			{sig.preset, sig.min + 1, sig.max, sig.avg},
			{sig.preset, sig.min, 392, sig.avg},
			{sig.preset, sig.min, sig.max, sig.avg + 0.01},
		} {
			if checkTableVI(i, bad) == nil {
				t.Errorf("wrong signature %v accepted for %s", bad, sig.preset)
			}
		}
	}
	if got := table6ErrPct(simulatedTableVI); got < 30.8 || got > 30.9 {
		t.Errorf("table6ErrPct = %g, want about 30.82", got)
	}
}
