package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// spanName identifies what a span times. Every span wraps one call the
// benchmark makes into a layer of the program (or a group of such
// calls), so the trace is taken entirely from outside the program.
type spanName uint8

const (
	spMixStep    spanName = iota // one inproc-mix loop step
	spSimSend                    // sim.Simulator.Send
	spSimClock                   // sim.Simulator.ClockN
	spSimRecv                    // sim.Simulator.Recv
	spPoint                      // workload.Session.Mutex
	spSessionNew                 // workload.NewSession
	spRound                      // one hmcd client round (three ops)
	spCallSend                   // server.Client.Send
	spCallCUR                    // server.Client.ClockUntilRecv
	spCallRecv                   // server.Client.Recv
	spCallBatch                  // server.Batch.Do
	spCallInit                   // server.Client.Init
	spCallClose                  // server.Client.CloseSession
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"mix.step", "sim.send", "sim.clock", "sim.recv",
	"workload.point", "workload.session_new",
	"client.round", "server.call.send", "server.call.clock_until_recv",
	"server.call.recv", "server.call.batch", "server.call.init",
	"server.call.close",
}

// keepDurations marks the spans whose individual durations are kept for
// percentiles; the rest are aggregated only.
var keepDurations = [numSpanNames]bool{
	spCallSend: true, spCallCUR: true, spCallRecv: true,
	spCallBatch: true, spCallInit: true, spCallClose: true,
}

// spansKept bounds the spans a tracer keeps for writing out; the
// aggregates cover every span regardless.
const spansKept = 20000

// spanRec is one finished span. Times are nanoseconds since the run
// epoch; Self is the duration minus the time its child spans cover
// (children of one span run sequentially on its goroutine, so that is
// the sum of their durations).
type spanRec struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
	Req    uint64 `json:"req"`
}

type openSpan struct {
	name         spanName
	id, req      uint64
	start, child int64
}

// spanAgg totals every span of one name.
type spanAgg struct {
	Count, Total, Self int64
}

// tracer records spans for one goroutine. Spans nest: end closes the
// innermost open span. A disabled tracer costs one branch per call, so
// untraced windows share the traced code path.
type tracer struct {
	on     bool
	epoch  time.Time
	nextID uint64
	stack  []openSpan
	agg    [numSpanNames]spanAgg
	durs   [numSpanNames][]uint32
	kept   []spanRec
}

// quiet is a tracer that is never enabled, for warm-up work that must
// not enter the trace. It is safe to share: a disabled tracer is only
// read.
var quiet = &tracer{}

func newTracer(epoch time.Time, index int) *tracer {
	return &tracer{epoch: epoch, nextID: uint64(index) << 40}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin(n spanName, req uint64) {
	if !t.on {
		return
	}
	t.nextID++
	t.stack = append(t.stack, openSpan{name: n, id: t.nextID, req: req, start: t.now()})
}

func (t *tracer) end() {
	if !t.on {
		return
	}
	end := t.now()
	top := len(t.stack) - 1
	s := t.stack[top]
	t.stack = t.stack[:top]
	dur := end - s.start
	var parent uint64
	if top > 0 {
		t.stack[top-1].child += dur
		parent = t.stack[top-1].id
	}
	a := &t.agg[s.name]
	a.Count++
	a.Total += dur
	a.Self += dur - s.child
	if keepDurations[s.name] {
		t.durs[s.name] = append(t.durs[s.name], clampNs(dur))
	}
	if len(t.kept) < spansKept {
		t.kept = append(t.kept, spanRec{
			ID: s.id, Parent: parent, Name: spanNames[s.name],
			Start: s.start, End: end, Self: dur - s.child, Req: s.req,
		})
	}
}

// clampNs converts a duration to the uint32 nanoseconds latency samples
// are stored in (4.29 s saturates).
func clampNs(d int64) uint32 {
	if d > int64(^uint32(0)) {
		return ^uint32(0)
	}
	if d < 0 {
		return 0
	}
	return uint32(d)
}

// traceSet is every tracer of a run: one per driver goroutine plus one
// for the main goroutine.
type traceSet struct {
	epoch time.Time
	ts    []*tracer
}

func newTraceSet(n int) *traceSet {
	s := &traceSet{epoch: time.Now()}
	for i := 0; i <= n; i++ {
		s.ts = append(s.ts, newTracer(s.epoch, i))
	}
	return s
}

// main is the main goroutine's tracer; driver i uses driver(i).
func (s *traceSet) main() *tracer        { return s.ts[0] }
func (s *traceSet) driver(i int) *tracer { return s.ts[i+1] }

func (s *traceSet) setOn(on bool) {
	for _, t := range s.ts {
		t.on = on
	}
}

// total sums one name's aggregate across tracers.
func (s *traceSet) total(n spanName) spanAgg {
	var a spanAgg
	for _, t := range s.ts {
		a.Count += t.agg[n].Count
		a.Total += t.agg[n].Total
		a.Self += t.agg[n].Self
	}
	return a
}

// meanUs is the mean duration of one name's spans in microseconds.
func (s *traceSet) meanUs(n spanName) float64 {
	a := s.total(n)
	return ratio(float64(a.Total), float64(a.Count)) / 1e3
}

// durations gathers one name's kept durations across tracers.
func (s *traceSet) durations(n spanName) []uint32 {
	var out []uint32
	for _, t := range s.ts {
		out = append(out, t.durs[n]...)
	}
	return out
}

// spans counts every recorded span.
func (s *traceSet) spans() int64 {
	var n int64
	for i := spanName(0); i < numSpanNames; i++ {
		n += s.total(i).Count
	}
	return n
}

// rootSelfShare is the share of root-span time not covered by child
// spans: the benchmark's own bookkeeping between calls into the program.
func (s *traceSet) rootSelfShare(roots ...spanName) float64 {
	var self, total int64
	for _, r := range roots {
		a := s.total(r)
		self += a.Self
		total += a.Total
	}
	return ratio(float64(self), float64(total))
}

// write dumps the run metadata, the per-name aggregates and the kept
// spans as JSON lines.
func (s *traceSet) write(path string, meta map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(map[string]any{"meta": meta})
	for n := spanName(0); n < numSpanNames && err == nil; n++ {
		if a := s.total(n); a.Count > 0 {
			err = enc.Encode(map[string]any{"aggregate": spanNames[n], "count": a.Count, "total_ns": a.Total, "self_ns": a.Self})
		}
	}
	for _, t := range s.ts {
		for i := range t.kept {
			if err != nil {
				break
			}
			err = enc.Encode(&t.kept[i])
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
