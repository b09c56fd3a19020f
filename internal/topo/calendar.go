package topo

import "repro/internal/device"

// The topology-level half of the event-driven cycle scheduler: a small
// calendar over per-cube next-event cycles (device.NextEventCycle) that
// the clock drivers consult to decide, per cycle, which cubes must
// actually step — and, in the batched drivers, how many whole cycles
// every cube can fast-forward in one jump.
//
// With at most config.MaxDevs (8) cubes, the calendar is a linear scan
// over a fixed slice rather than a min-heap or sorted ring: recomputing
// all eight bounds costs a few dozen loads (NextEventCycle short-
// circuits on the first dirty bitset word), far below the constant
// factor of maintaining an ordered structure under per-cycle
// invalidation. The bounds are recomputed at every decision point
// instead of cached across calls, so direct device pokes between public
// clock calls (tests, JTAG) can never leave a stale bound behind.
type calendar struct {
	// step[i] is cube i's decision for the cycle being clocked: true to
	// run the full device Clock, false to fast-forward with
	// SkipCycles(1). Filled by planCycle, read by Clock.
	step []bool
}

func (c *calendar) init(n int) {
	c.step = make([]bool, n)
}

// planCycle fills the calendar's step plan for the cycle the topology
// just advanced to (t.cycle; the devices still sit one cycle behind).
// A cube steps when its next event is due, or — defensively; the
// collect loop drains them every stepped cycle — when a remote cube
// still holds surfaced responses.
func (t *Topology) planCycle() {
	for i, d := range t.devs {
		step := d.NextEventCycle() <= t.cycle
		if !step && i > 0 && d.HostRspQueued() {
			step = true
		}
		t.cal.step[i] = step
	}
}

// jumpSpan returns how many whole cycles every cube can fast-forward in
// one jump without any Clock doing observable work, capped at n. Zero
// means the next cycle must be clocked normally: some cube has an event
// due, a forwarded request is deliverable (or must be delivered exactly
// when its hop delay elapses — a jump never crosses a deliverAt), or a
// remote cube holds responses the collect loop owes the return path.
func (t *Topology) jumpSpan(n uint64) uint64 {
	target := t.cycle + n
	for i, d := range t.devs {
		if i > 0 && d.HostRspQueued() {
			return 0
		}
		b := d.NextEventCycle()
		if b == device.NeverCycle {
			continue
		}
		// The device may advance to b-1; clocking to b does the work.
		if b-1 < target {
			target = b - 1
		}
	}
	for i := range t.pendingRqst {
		at := t.pendingRqst[i].deliverAt
		if at <= t.cycle {
			return 0
		}
		// Delivery happens in the Clock whose pre-increment cycle equals
		// deliverAt, so the jump may land exactly on it but not beyond.
		if at < target {
			target = at
		}
	}
	if target <= t.cycle {
		return 0
	}
	return target - t.cycle
}

// recvSpan is jumpSpan additionally capped so a jump never crosses the
// cycle a forwarded response matures on a host link — the bound the
// run-until-event driver (ClockUntilRecv) needs so it stops exactly at
// the cycle a response becomes visible to Recv. Only each link's head
// entry matters: Recv delivers strictly in FIFO order per link.
func (t *Topology) recvSpan(n uint64) uint64 {
	span := t.jumpSpan(n)
	for link, q := range t.pendingRsp {
		h := t.rspHead[link]
		if h < len(q) {
			at := q[h].deliverAt
			if at <= t.cycle {
				return 0
			}
			if at-t.cycle < span {
				span = at - t.cycle
			}
		}
	}
	return span
}

// skipAll fast-forwards every cube span cycles and advances the
// topology clock with them.
func (t *Topology) skipAll(span uint64) {
	for _, d := range t.devs {
		d.SkipCycles(span)
	}
	t.cycle += span
}

// clockSingleActive batches consecutive cycles on which exactly one
// cube is active and no cross-cube packet is in flight or deliverable:
// the active cube runs its device Clock back-to-back (one "epoch", no
// per-cycle topology scans) while the others are fast-forwarded in one
// SkipCycles call afterwards. Legal because
// inter-cube exchange happens only at cycle boundaries and none is due
// within the batch; a remote active cube additionally stops the batch
// the moment a response surfaces, collecting it that same cycle, so the
// return hop starts exactly when per-cycle stepping would start it.
// Returns the cycles consumed (0: conditions not met, caller clocks
// normally).
func (t *Topology) clockSingleActive(n uint64) uint64 {
	limit := t.cycle + n
	active := -1
	for i, d := range t.devs {
		if i > 0 && d.HostRspQueued() {
			return 0
		}
		b := d.NextEventCycle()
		if b <= t.cycle+1 {
			if active >= 0 {
				return 0 // two active cubes: step the topology normally
			}
			active = i
			continue
		}
		if b == device.NeverCycle {
			continue
		}
		if b-1 < limit {
			limit = b - 1 // idle cube wakes at b: batch may reach b-1
		}
	}
	if active < 0 {
		return 0
	}
	for i := range t.pendingRqst {
		at := t.pendingRqst[i].deliverAt
		if at <= t.cycle {
			return 0
		}
		if at < limit {
			limit = at
		}
	}
	if limit <= t.cycle {
		return 0
	}
	k := limit - t.cycle
	d := t.devs[active]
	var done uint64
	for done < k {
		t.cycle++
		done++
		d.Clock()
		if active != 0 && d.HostRspQueued() {
			t.collectFrom(active)
			break
		}
		if d.NextEventCycle() > t.cycle+1 {
			break // active cube went idle/parked: let the caller jump
		}
	}
	for i, o := range t.devs {
		if i != active {
			o.SkipCycles(done)
		}
	}
	return done
}
