package main

import (
	"errors"
	"fmt"
	"math/bits"
	"time"

	"repro/internal/config"
	"repro/internal/device"
	"repro/internal/hmccmd"
	"repro/internal/packet"
	"repro/internal/sim"
)

// The inproc-mix workload: what a co-simulation host sees. Each driver
// owns one 4Link-4GB simulator and keeps mixSlots requests outstanding
// over its four links, clocking one cycle per step.
const (
	mixSlots      = 64
	mixLinks      = 4
	mixWorkingSet = 64 << 20
	// mixRegion is the unit of exclusivity: at most one request is in
	// flight per region, so the shadow copy's value at issue is the value
	// the device must return, whatever order responses come back in.
	mixRegion  = 256
	mixRegions = mixWorkingSet / mixRegion
	// mixWarmup requests run during setup; mixCountReqs requests make
	// the exact-count pass.
	mixWarmup    = 20000
	mixCountReqs = 20000
)

type mixOp uint8

const (
	opRD64 mixOp = iota
	opWR64
	opRD256
	opWR256
	opINC8
	opADD16
)

// mixShare is each op's share of the stream in per mille: 50% RD64, 25%
// WR64, 10% RD256/WR256 and 15% INC8/ADD16.
var mixShare = [...]struct {
	op     mixOp
	permil uint64
}{{opRD64, 500}, {opWR64, 250}, {opRD256, 50}, {opWR256, 50}, {opINC8, 75}, {opADD16, 75}}

// splitmix is the seeded generator behind every input the benchmark
// makes.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// shadow is the benchmark's own copy of the working set, one entry per
// 8-byte word.
type shadow []uint64

// apply performs a write or atomic on the shadow copy.
func (m shadow) apply(op mixOp, adrs uint64, payload []uint64) {
	w := adrs / 8
	switch op {
	case opWR64, opWR256:
		copy(m[w:], payload)
	case opINC8:
		m[w]++
	case opADD16:
		lo, carry := bits.Add64(m[w], payload[0], 0)
		m[w], m[w+1] = lo, m[w+1]+payload[1]+carry
	}
}

// check compares a read's response payload with the shadow copy.
func (m shadow) check(adrs uint64, payload []uint64) error {
	w := adrs / 8
	for i, v := range payload {
		if m[w+uint64(i)] != v {
			return fmt.Errorf("read %#x word %d: got %#x, want %#x", adrs, i, v, m[w+uint64(i)])
		}
	}
	return nil
}

type mixReq struct {
	op      mixOp
	adrs    uint64
	payload []uint64
}

type mixSlot struct {
	op   mixOp
	adrs uint64
	sent int64
	win  int32
	busy bool
}

// mixDriver is one simulator and the closed loop driving it. Its
// request stream is a function of its seed and of the simulated
// responses only, never of host timing, so counts repeat exactly.
type mixDriver struct {
	s       *sim.Simulator
	rng     splitmix
	mem     shadow
	busy    []uint64 // bitmap of regions with a request in flight
	slots   [mixSlots]mixSlot
	free    []int
	pend    mixReq
	hasPend bool
	buf     [32]uint64
	scratch sim.ReqScratch
	epoch   time.Time
	win     int32

	steps, issued, done, stalls uint64
	failed                      int64
	problem                     error
	lat                         []uint32
}

// mixConfig is 4Link-4GB with 256-byte maximum blocks: the preset's
// 64-byte blocks answer every RD256/WR256 with a block-violation error.
func mixConfig() config.Config {
	c := config.FourLink4GB()
	c.MaxBlockSize = 256
	return c
}

func newMixDriver(seed uint64, epoch time.Time) (*mixDriver, error) {
	s, err := sim.New(mixConfig())
	if err != nil {
		return nil, err
	}
	d := &mixDriver{s: s, epoch: epoch, mem: make(shadow, mixWorkingSet/8), busy: make([]uint64, mixRegions/64)}
	return d, d.reset(seed)
}

// reset rewinds the simulator and reloads the working set with seeded
// contents, in the simulator's store and in the shadow copy alike.
func (d *mixDriver) reset(seed uint64) error {
	d.s.Reset()
	d.rng = splitmix(seed)
	for i := range d.mem {
		d.mem[i] = d.rng.next()
	}
	dev, err := d.s.Device(0)
	if err != nil {
		return err
	}
	st := dev.Store()
	const words = mixRegion / 8
	for a := uint64(0); a < mixWorkingSet; a += mixRegion {
		if err := st.WriteWords(a, d.mem[a/8:a/8+words], mixRegion); err != nil {
			return err
		}
	}
	clear(d.busy)
	d.free = d.free[:0]
	for i := mixSlots - 1; i >= 0; i-- {
		d.free = append(d.free, i)
		d.slots[i] = mixSlot{}
	}
	d.hasPend = false
	d.steps, d.issued, d.done, d.stalls = 0, 0, 0, 0
	return nil
}

// gen draws the next request: an op by mixShare, in a region with no
// request in flight.
func (d *mixDriver) gen() mixReq {
	x := d.rng.next() % 1000
	op := opADD16
	for _, s := range mixShare {
		if x < s.permil {
			op = s.op
			break
		}
		x -= s.permil
	}
	var region uint64
	for {
		region = d.rng.next() % mixRegions
		if d.busy[region/64]&(1<<(region%64)) == 0 {
			break
		}
	}
	q := mixReq{op: op, adrs: region * mixRegion}
	switch op {
	case opRD64:
		q.adrs += d.rng.next() % 4 * 64
	case opWR64:
		q.adrs += d.rng.next() % 4 * 64
		q.payload = d.fill(8)
	case opWR256:
		q.payload = d.fill(32)
	case opINC8:
		q.adrs += d.rng.next() % 32 * 8
	case opADD16:
		q.adrs += d.rng.next() % 16 * 16
		q.payload = d.fill(2)
	}
	return q
}

func (d *mixDriver) fill(n int) []uint64 {
	p := d.buf[:n]
	for i := range p {
		p[i] = d.rng.next()
	}
	return p
}

func (d *mixDriver) build(q mixReq, tag, link int) (*packet.Rqst, error) {
	switch q.op {
	case opRD64:
		return d.scratch.BuildRead(0, q.adrs, uint16(tag), link, 64)
	case opRD256:
		return d.scratch.BuildRead(0, q.adrs, uint16(tag), link, 256)
	case opWR64, opWR256:
		return d.scratch.BuildWrite(0, q.adrs, uint16(tag), link, q.payload, false)
	case opINC8:
		return d.scratch.BuildAtomic(hmccmd.INC8, 0, q.adrs, uint16(tag), link, nil)
	default:
		return d.scratch.BuildAtomic(hmccmd.ADD16, 0, q.adrs, uint16(tag), link, q.payload)
	}
}

func (d *mixDriver) now() int64 { return int64(time.Since(d.epoch)) }

// step fills every free slot (until the device stalls), clocks one
// cycle and drains every link.
func (d *mixDriver) step(tr *tracer, limit uint64) error {
	d.steps++
	tr.begin(spMixStep, d.steps)
	defer tr.end()
	sent := d.now()
	for len(d.free) > 0 && d.issued < limit {
		if !d.hasPend {
			d.pend, d.hasPend = d.gen(), true
		}
		tag := d.free[len(d.free)-1]
		link := tag % mixLinks
		r, err := d.build(d.pend, tag, link)
		if err != nil {
			return err
		}
		tr.begin(spSimSend, d.issued)
		err = d.s.Send(link, r)
		tr.end()
		if errors.Is(err, device.ErrStall) {
			d.stalls++
			break
		}
		if err != nil {
			return err
		}
		q := d.pend
		d.hasPend = false
		d.free = d.free[:len(d.free)-1]
		region := q.adrs / mixRegion
		d.busy[region/64] |= 1 << (region % 64)
		d.mem.apply(q.op, q.adrs, q.payload)
		d.slots[tag] = mixSlot{op: q.op, adrs: q.adrs, sent: sent, win: d.win, busy: true}
		d.issued++
	}
	tr.begin(spSimClock, d.steps)
	d.s.ClockN(1)
	tr.end()
	for link := 0; link < mixLinks; link++ {
		for {
			tr.begin(spSimRecv, d.steps)
			rsp, ok := d.s.Recv(link)
			tr.end()
			if !ok {
				break
			}
			d.complete(rsp.TAG, rsp.CmdCode, rsp.ERRSTAT, rsp.DINV, rsp.Payload)
			sim.ReleaseRsp(rsp)
		}
	}
	return nil
}

// complete checks one response against the shadow copy and frees its
// slot.
func (d *mixDriver) complete(tag uint16, cmd, errstat uint8, dinv bool, payload []uint64) {
	if int(tag) >= mixSlots || !d.slots[tag].busy {
		d.failed++
		d.problem = fmt.Errorf("response with unknown tag %d", tag)
		return
	}
	s := &d.slots[tag]
	var err error
	switch {
	case errstat != 0 || dinv:
		err = fmt.Errorf("op %d at %#x: errstat %#x dinv %v", s.op, s.adrs, errstat, dinv)
	case s.op == opRD64 || s.op == opRD256:
		want := 8
		if s.op == opRD256 {
			want = 32
		}
		if cmd != hmccmd.CodeRdRS || len(payload) != want {
			err = fmt.Errorf("read at %#x: cmd %#x with %d words", s.adrs, cmd, len(payload))
		} else {
			err = d.mem.check(s.adrs, payload)
		}
	case cmd != hmccmd.CodeWrRS || len(payload) != 0:
		err = fmt.Errorf("op %d at %#x: cmd %#x with %d words", s.op, s.adrs, cmd, len(payload))
	}
	if err != nil {
		d.failed++
		d.problem = err
	}
	if s.win == d.win {
		d.lat = append(d.lat, clampNs(d.now()-s.sent))
	}
	region := s.adrs / mixRegion
	d.busy[region/64] &^= 1 << (region % 64)
	s.busy = false
	d.free = append(d.free, int(tag))
	d.done++
}

// runFor steps until the deadline.
func (d *mixDriver) runFor(until time.Time, tr *tracer) error {
	for {
		for i := 0; i < 16; i++ {
			if err := d.step(tr, ^uint64(0)); err != nil {
				return err
			}
		}
		if !time.Now().Before(until) {
			return nil
		}
	}
}

// runCount issues exactly n requests and waits for every response.
func (d *mixDriver) runCount(n uint64, tr *tracer) error {
	for d.issued < n || len(d.free) < mixSlots {
		if err := d.step(tr, n); err != nil {
			return err
		}
	}
	return nil
}

// mixCounts is what an exact-count pass must reproduce.
type mixCounts struct {
	cycles, stalls uint64
	stats          device.Stats
}

// mixBench is the inproc-mix workload: one driver per core, each with
// its own simulator; a serial window drives the first only.
type mixBench struct {
	seed uint64
	ds   []*mixDriver
	win  int32
}

func newMixBench(seed int64) *mixBench { return &mixBench{seed: uint64(seed)} }

func (b *mixBench) params() map[string]any {
	return map[string]any{
		"preset": "4Link-4GB", "max_block_bytes": mixConfig().MaxBlockSize, "outstanding": mixSlots, "links": mixLinks,
		"working_set_bytes": mixWorkingSet, "mix_permil": "RD64 500, WR64 250, RD256 50, WR256 50, INC8 75, ADD16 75",
		"clock": "ClockN(1) per step", "warmup_requests": mixWarmup, "count_pass_requests": mixCountReqs,
		"simulators": drivers(), "op": "one request, Send to Recv",
	}
}

func (b *mixBench) sessions() int { return len(b.ds) }

// ownBytes is the heap the benchmark itself holds beside the simulators:
// each driver's shadow copy, region bitmap and latency buffer.
func (b *mixBench) ownBytes() uint64 {
	var n uint64
	for _, d := range b.ds {
		n += uint64(cap(d.mem))*8 + uint64(cap(d.busy))*8 + uint64(cap(d.lat))*4
	}
	return n
}

func (b *mixBench) driverSeed(k int) uint64 { return b.seed*1_000_003 + uint64(k) }

func (b *mixBench) setup(ts *traceSet) error {
	for k := 0; k < drivers(); k++ {
		d, err := newMixDriver(b.driverSeed(k), ts.epoch)
		if err != nil {
			return err
		}
		if err := d.runCount(mixWarmup, quiet); err != nil {
			return err
		}
		d.issued, d.done = 0, 0
		b.ds = append(b.ds, d)
	}
	return nil
}

func (b *mixBench) window(n int, dur time.Duration, ts *traceSet) (win, error) {
	b.win++
	var w win
	before := make([]struct{ done, cycles uint64 }, n)
	for k := 0; k < n; k++ {
		d := b.ds[k]
		d.win, d.lat = b.win, d.lat[:0]
		before[k].done, before[k].cycles = d.done, d.s.Cycle()
	}
	start := time.Now()
	until := start.Add(dur)
	err := fanout(n, func(k int) error { return b.ds[k].runFor(until, ts.driver(k)) })
	w.wall = time.Since(start)
	if err != nil {
		return w, err
	}
	for k := 0; k < n; k++ {
		d := b.ds[k]
		w.ops += int64(d.done - before[k].done)
		w.cycles += d.s.Cycle() - before[k].cycles
		w.lat = append(w.lat, d.lat)
		w.failed += d.failed
		d.failed = 0
	}
	return w, nil
}

func (b *mixBench) finish(r *report, ts *traceSet) error {
	for _, d := range b.ds {
		if d.problem != nil {
			r.fail("inproc-mix: %v", d.problem)
		}
	}
	var alloc uint64
	for _, d := range b.ds {
		dev, err := d.s.Device(0)
		if err != nil {
			return err
		}
		alloc += dev.Store().AllocatedBytes()
	}
	r.vals["mem.allocated_mb"] = float64(alloc) / (1 << 20)

	// Exact-count pass, twice on a reset simulator: the counts must
	// repeat bit for bit.
	var counts [2]mixCounts
	d := b.ds[0]
	for i := range counts {
		if err := d.reset(b.seed); err != nil {
			return err
		}
		if err := d.runCount(mixCountReqs, ts.main()); err != nil {
			return err
		}
		dev, err := d.s.Device(0)
		if err != nil {
			return err
		}
		counts[i] = mixCounts{cycles: d.s.Cycle(), stalls: d.stalls, stats: dev.Stats()}
		r.attempted += int64(mixCountReqs)
		r.failed += d.failed
		d.failed = 0
	}
	if counts[0] != counts[1] {
		r.fail("inproc-mix: exact counts differ between identical passes: %+v vs %+v", counts[0], counts[1])
	}
	n := float64(mixCountReqs)
	r.vals["sim.cycles_per_op"] = float64(counts[0].cycles) / n
	r.vals["sim.send_stalls_per_op"] = float64(counts[0].stalls) / n
	putDeviceCounts(r, counts[0].stats, n)

	step := ts.total(spMixStep)
	for _, c := range []struct {
		n    spanName
		name string
	}{{spSimSend, "send"}, {spSimClock, "clock"}, {spSimRecv, "recv"}} {
		a := ts.total(c.n)
		r.vals["sim."+c.name+"_ns"] = ratio(float64(a.Total), float64(a.Count))
		r.vals["sim."+c.name+"_share"] = ratio(float64(a.Total), float64(step.Total))
	}
	r.vals["trace.root_self_share"] = ts.rootSelfShare(spMixStep)

	tables, err := sweepTable(r)
	if err != nil {
		return err
	}
	r.vals["table6_avg_err_pct"] = table6ErrPct(tables)
	return nil
}

func (b *mixBench) close() {
	for _, d := range b.ds {
		d.s.Close()
	}
	b.ds = nil
}
