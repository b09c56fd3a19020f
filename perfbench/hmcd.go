package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/config"
	"repro/internal/device"
	"repro/internal/hmccmd"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/sim"
)

// The hmcd workloads: an in-process session server on a real Unix
// socket, holding a fleet of sessions that closed-loop drivers take
// through send → clock_until_recv → recv rounds.
const (
	fleetSize  = 10000
	hmcdPreset = "2gb-dev"
	hmcdBudget = 1 << 16
	hmcdLink   = 0
	// Every sampleEvery-th session keeps its responses for the
	// bit-for-bit replay on an in-process simulator.
	sampleEvery = 100
	// The exact-count pass takes countSessions fresh sessions through
	// countRounds rounds each.
	countSessions = 100
	countRounds   = 6
)

// countConn counts what the client puts on and takes off the wire.
type countConn struct {
	net.Conn
	read, written, writes atomic.Int64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

// roundOp is the request one round sends.
type roundOp struct {
	cmd     hmccmd.Rqst
	adrs    uint64
	tag     uint16
	payload []uint64
}

// hmcdOp derives round k of session i from the seed alone, so a
// session's op stream does not depend on which driver runs it. The
// stream is cmd/hmcd-load's (link 0, one 64-byte block per session at
// (i mod 512)·64) with the op drawn by inproc-mix's class shares: RD64
// 50, WR64 25 and atomics 15, INC8 (on the block's first word) being
// the atomic. A WR64's payload is built in buf.
func hmcdOp(seed uint64, i int, k uint32, buf *[8]uint64) roundOp {
	r := splitmix(seed ^ uint64(i)*0x9e3779b97f4a7c15 ^ uint64(k)<<44)
	op := roundOp{adrs: uint64(i%512) * 64, tag: uint16(k % 2048)}
	switch x := r.next() % 90; {
	case x < 50:
		op.cmd = hmccmd.RD64
	case x < 75:
		op.cmd = hmccmd.WR64
		op.payload = buf[:]
		for w := range op.payload {
			op.payload[w] = r.next()
		}
	default:
		op.cmd = hmccmd.INC8
	}
	return op
}

// roundRsp is everything a round's three responses report.
type roundRsp struct {
	accepted, avail, have, dinv bool
	sendCycle, adv, cucCycle    uint64
	recvCycle                   uint64
	cmd, errstat                uint8
	tag                         uint16
	payload                     []uint64
}

// check validates a round's responses against what its op must produce.
func (rr *roundRsp) check(op roundOp) error {
	wantCmd, wantWords := hmccmd.CodeWrRS, 0
	if op.cmd == hmccmd.RD64 {
		wantCmd, wantWords = hmccmd.CodeRdRS, 8
	}
	switch {
	case !rr.accepted:
		return errors.New("send stalled")
	case !rr.avail:
		return errors.New("no response within budget")
	case !rr.have:
		return errors.New("empty recv")
	case rr.tag != op.tag || rr.cmd != wantCmd || len(rr.payload) != wantWords || rr.errstat != 0 || rr.dinv:
		return fmt.Errorf("response tag %d cmd %#x words %d errstat %#x dinv %v for %v tag %d",
			rr.tag, rr.cmd, len(rr.payload), rr.errstat, rr.dinv, op.cmd, op.tag)
	}
	return nil
}

// hmcdClient is one connection and what rides on it.
type hmcdClient struct {
	cc    *countConn
	cl    *server.Client
	batch *server.Batch
	// buf holds the payload of the client's current WR64.
	buf [8]uint64
	// lat holds the latency samples of the client's current window.
	lat []uint32
}

func dialHmcd(sock, proto string) (*hmcdClient, error) {
	nc, err := net.Dial("unix", sock)
	if err != nil {
		return nil, err
	}
	cc := &countConn{Conn: nc}
	cl := server.NewClient(cc)
	if err := cl.Hello(proto); err != nil {
		cl.Close()
		return nil, fmt.Errorf("hello %s: %w", proto, err)
	}
	return &hmcdClient{cc: cc, cl: cl, batch: cl.NewBatch(0)}, nil
}

// round runs one send → clock_until_recv → recv round against sess:
// three calls, or one batch call carrying all three. It appends one
// latency sample per call to lat.
func (c *hmcdClient) round(batch bool, sess uint64, op roundOp, tr *tracer, lat *[]uint32) (roundRsp, error) {
	var rr roundRsp
	if batch {
		b := c.batch
		b.Begin(sess)
		b.Send(hmcdLink, op.cmd.Code(), 0, op.adrs, op.tag, op.payload)
		b.ClockUntilRecv(hmcdBudget)
		b.Recv(hmcdLink)
		t0 := time.Now()
		tr.begin(spCallBatch, sess)
		rsps, err := b.Do()
		tr.end()
		*lat = append(*lat, clampNs(int64(time.Since(t0))))
		if err != nil {
			return rr, asCheck(err)
		}
		for i := range rsps {
			if !rsps[i].OK {
				return rr, &checkError{fmt.Errorf("batch sub-op %d: %s: %s", i, rsps[i].Code, rsps[i].Err)}
			}
		}
		fill(&rr, &rsps[0], &rsps[1], &rsps[2])
		return rr, nil
	}
	var rsps [3]server.Response
	calls := [3]struct {
		n   spanName
		op  server.Op
		req server.Request
	}{
		{spCallSend, server.OpSend, server.Request{Sess: sess, Link: hmcdLink, Cmd: op.cmd.Code(), Adrs: op.adrs, Tag: op.tag, Payload: op.payload}},
		{spCallCUR, server.OpClockUntilRecv, server.Request{Sess: sess, Budget: hmcdBudget}},
		{spCallRecv, server.OpRecv, server.Request{Sess: sess, Link: hmcdLink}},
	}
	for i, call := range calls {
		t0 := time.Now()
		tr.begin(call.n, sess)
		rsp, err := c.cl.Do(call.op, call.req)
		tr.end()
		*lat = append(*lat, clampNs(int64(time.Since(t0))))
		if err != nil {
			return rr, asCheck(fmt.Errorf("%v: %w", call.op, err))
		}
		rsps[i] = rsp
	}
	fill(&rr, &rsps[0], &rsps[1], &rsps[2])
	return rr, nil
}

// fill gathers a round's responses. rr.payload aliases the recv
// response and is valid until the client's next call.
func fill(rr *roundRsp, send, cur, recv *server.Response) {
	rr.accepted, rr.sendCycle = send.Accepted, send.Cycle
	rr.adv, rr.avail, rr.cucCycle = cur.Advanced, cur.Avail, cur.Cycle
	rr.have, rr.recvCycle, rr.cmd, rr.tag = recv.Have, recv.Cycle, recv.Cmd, recv.Tag
	rr.dinv, rr.errstat = recv.Dinv, recv.Errstat
	rr.payload = recv.Payload
}

// hmcdServer is a session server listening on a Unix socket under the
// run's output directory.
type hmcdServer struct {
	srv   *server.Server
	sock  string
	serve chan error
}

func startServer(dir, name string, maxSessions int) (*hmcdServer, error) {
	// A relative path keeps the socket name within the platform's
	// limit however deep the checkout is.
	sock := filepath.Join(dir, fmt.Sprintf("hmcd-%d-%s.sock", os.Getpid(), name))
	_ = os.Remove(sock) // a stale socket from a killed run
	ln, err := net.Listen("unix", sock)
	if err != nil {
		return nil, err
	}
	h := &hmcdServer{srv: server.New(server.Config{MaxSessions: maxSessions}), sock: sock, serve: make(chan error, 1)}
	go func() { h.serve <- h.srv.Serve(ln) }()
	return h, nil
}

func (h *hmcdServer) close() error {
	cerr := h.srv.Close()
	serr := <-h.serve
	_ = os.Remove(h.sock) // the listener may already have unlinked it
	return errors.Join(cerr, serr)
}

// hmcdBench is one hmcd workload: JSON calls or binary batch frames.
type hmcdBench struct {
	o       options
	batch   bool
	proto   string
	seed    uint64
	srv     *hmcdServer
	clients []*hmcdClient
	ids     []uint64
	rounds  []uint32
	// cursor[n][k] is driver k's position in its share of the fleet
	// when n drivers run.
	cursor map[int][]int
	// logs keeps every round's responses of the sampled sessions.
	logs [][]roundRsp
	// problem is the first failed check.
	problem error
}

func newHmcdBench(o options, batch bool) *hmcdBench {
	proto := server.ProtoJSON
	if batch {
		proto = server.ProtoBinary
	}
	return &hmcdBench{o: o, batch: batch, proto: proto, seed: uint64(o.seed), cursor: map[int][]int{}}
}

func (b *hmcdBench) params() map[string]any {
	op := "one line-JSON call (send, clock_until_recv or recv)"
	if b.batch {
		op = "one binary batch call carrying send, clock_until_recv and recv"
	}
	return map[string]any{
		"transport": "unix", "proto": b.proto, "batch": b.batch, "preset": hmcdPreset,
		"fleet": fleetSize, "conns": drivers(), "drivers": drivers(), "mix": "RD64:WR64:INC8 = 50:25:15",
		"link": hmcdLink, "session_block": "(session mod 512) x 64, one 64-byte block", "budget": hmcdBudget, "warmup_rounds_per_session": 1,
		"sampled_sessions": fleetSize / sampleEvery, "count_pass": fmt.Sprintf("%d sessions x %d rounds", countSessions, countRounds),
		"op": op, "ops_counted": "protocol ops, 3 per round",
	}
}

func (b *hmcdBench) sessions() int { return len(b.ids) }

func (b *hmcdBench) setup(ts *traceSet) error {
	var err error
	if b.srv, err = startServer(b.o.out, "fleet", fleetSize+16); err != nil {
		return err
	}
	p := drivers()
	for k := 0; k < p; k++ {
		c, err := dialHmcd(b.srv.sock, b.proto)
		if err != nil {
			return err
		}
		b.clients = append(b.clients, c)
	}
	b.ids = make([]uint64, fleetSize)
	b.rounds = make([]uint32, fleetSize)
	b.logs = make([][]roundRsp, fleetSize/sampleEvery)
	err = fanout(p, func(k int) error {
		tr := ts.driver(k)
		for i := k; i < fleetSize; i += p {
			tr.begin(spCallInit, uint64(i))
			id, err := b.clients[k].cl.Init(hmcdPreset)
			tr.end()
			if err != nil {
				return fmt.Errorf("init %d: %w", i, err)
			}
			b.ids[i] = id
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Warm-up: one round per session faults in its store pages and
	// fills the server's pools.
	return fanout(p, func(k int) error {
		c := b.clients[k]
		for i := k; i < fleetSize; i += p {
			if _, err := b.step(c, i, quiet, &c.lat); err != nil {
				return err
			}
		}
		return nil
	})
}

// step runs session i's next round, checks it and logs it when the
// session is sampled. A failed round comes back as a *checkError.
func (b *hmcdBench) step(c *hmcdClient, i int, tr *tracer, lat *[]uint32) (rr roundRsp, err error) {
	k := b.rounds[i]
	op := hmcdOp(b.seed, i, k, &c.buf)
	tr.begin(spRound, uint64(i)<<32|uint64(k))
	rr, err = c.round(b.batch, b.ids[i], op, tr, lat)
	tr.end()
	if err != nil && !isCheck(err) {
		return rr, fmt.Errorf("session %d round %d: %w", i, k, err)
	}
	b.rounds[i]++
	if i%sampleEvery == 0 {
		logged := rr
		logged.payload = append([]uint64(nil), rr.payload...)
		b.logs[i/sampleEvery] = append(b.logs[i/sampleEvery], logged)
	}
	if err == nil {
		err = rr.check(op)
	}
	if err != nil {
		return rr, &checkError{fmt.Errorf("session %d round %d: %w", i, k, err)}
	}
	return rr, nil
}

// checkError is a round whose responses failed: a not-ok response or a
// failed output check. It counts as a failed op, and the run goes on.
type checkError struct{ error }

// isCheck reports whether err is a *checkError. The target of errors.As
// escapes to the heap, so it is declared only once there is an error.
func isCheck(err error) bool {
	if err == nil {
		return false
	}
	var ce *checkError
	return errors.As(err, &ce)
}

// asCheck marks a server-reported failure as a failed op; any other
// error (the connection broke) ends the run.
func asCheck(err error) error {
	var pe *server.ProtocolError
	if errors.As(err, &pe) {
		return &checkError{err}
	}
	return err
}

func (b *hmcdBench) window(n int, dur time.Duration, ts *traceSet) (win, error) {
	if b.cursor[n] == nil {
		b.cursor[n] = make([]int, n)
	}
	type part struct {
		ops, failed int64
		cycles      uint64
		problem     error
	}
	parts := make([]part, n)
	start := time.Now()
	until := start.Add(dur)
	err := fanout(n, func(k int) error {
		pt, tr, c := &parts[k], ts.driver(k), b.clients[k]
		c.lat = c.lat[:0]
		share := (fleetSize - k + n - 1) / n
		for time.Now().Before(until) {
			i := k + n*b.cursor[n][k]
			b.cursor[n][k] = (b.cursor[n][k] + 1) % share
			rr, err := b.step(c, i, tr, &c.lat)
			pt.ops += 3
			if isCheck(err) {
				pt.failed++
				pt.problem = err
				err = nil
			}
			if err != nil {
				return err
			}
			pt.cycles += rr.adv
		}
		return nil
	})
	w := win{wall: time.Since(start)}
	for k, pt := range parts {
		w.ops += pt.ops
		w.failed += pt.failed
		w.cycles += pt.cycles
		w.lat = append(w.lat, b.clients[k].lat)
		if pt.problem != nil && b.problem == nil {
			b.problem = pt.problem
		}
	}
	return w, err
}

// ownBytes is the heap the benchmark itself holds for the fleet: its
// bookkeeping, latency buffers and the sampled sessions' response logs.
func (b *hmcdBench) ownBytes() uint64 {
	n := uint64(cap(b.ids))*8 + uint64(cap(b.rounds))*4
	for _, c := range b.clients {
		n += uint64(cap(c.lat)) * 4
	}
	for _, log := range b.logs {
		n += uint64(cap(log)) * uint64(unsafe.Sizeof(roundRsp{}))
		for i := range log {
			n += uint64(cap(log[i].payload)) * 8
		}
	}
	return n
}

// hmcdCounts is what an exact-count pass must reproduce.
type hmcdCounts struct {
	ops, wireBytes, wireWrites, adv uint64
	stats                           device.Stats
	digest                          uint64
}

// countPass takes fresh sessions on a fresh server and connection
// through a fixed op stream: the wire bytes, writes, cycles, device
// statistics and responses are then functions of the seed alone.
func (b *hmcdBench) countPass() (hmcdCounts, error) {
	var n hmcdCounts
	h, err := startServer(b.o.out, "count", countSessions+16)
	if err != nil {
		return n, err
	}
	defer h.close()
	c, err := dialHmcd(h.sock, b.proto)
	if err != nil {
		return n, err
	}
	defer c.cl.Close()
	ids := make([]uint64, countSessions)
	for j := range ids {
		if ids[j], err = c.cl.Init(hmcdPreset); err != nil {
			return n, err
		}
	}
	read0, written0, writes0 := c.cc.read.Load(), c.cc.written.Load(), c.cc.writes.Load()
	dig := fnv.New64a()
	for k := uint32(0); k < countRounds; k++ {
		for j, id := range ids {
			op := hmcdOp(^b.seed, j, k, &c.buf)
			rr, err := c.round(b.batch, id, op, quiet, &c.lat)
			if err != nil {
				return n, err
			}
			if err := rr.check(op); err != nil {
				return n, fmt.Errorf("count pass: %w", err)
			}
			fmt.Fprint(dig, rr)
			n.ops += 3
			n.adv += rr.adv
		}
	}
	n.wireBytes = uint64(c.cc.read.Load() - read0 + c.cc.written.Load() - written0)
	n.wireWrites = uint64(c.cc.writes.Load() - writes0)
	n.digest = dig.Sum64()
	for _, id := range ids {
		rsp, err := c.cl.Stats(id)
		if err != nil {
			return n, err
		}
		for _, s := range rsp.Devices {
			addStats(&n.stats, s)
		}
	}
	return n, nil
}

// replay reruns every sampled session's op stream on an in-process
// simulator and requires each response to match the wire's bit for
// bit. It returns the mean simulator time per op.
func (b *hmcdBench) replay(r *report) (map[string]float64, error) {
	s, err := sim.New(config.TwoGBDev())
	if err != nil {
		return nil, err
	}
	defer s.Close()
	var scratch sim.ReqScratch
	var buf [8]uint64
	var total [3]time.Duration
	var count int64
	for li, log := range b.logs {
		i := li * sampleEvery
		s.Reset()
		for k := range log {
			op := hmcdOp(b.seed, i, uint32(k), &buf)
			var rr roundRsp
			req, err := scratch.Build(op.cmd, 0, op.adrs, op.tag, hmcdLink, op.payload)
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			err = s.Send(hmcdLink, req)
			t1 := time.Now()
			rr.sendCycle = s.Cycle()
			rr.adv = s.ClockUntilRecv(hmcdBudget)
			rr.avail = s.RspAvailable()
			t2 := time.Now()
			rsp, ok := s.Recv(hmcdLink)
			t3 := time.Now()
			switch {
			case err == nil:
				rr.accepted = true
			case !errors.Is(err, device.ErrStall):
				return nil, err
			}
			rr.cucCycle, rr.recvCycle = s.Cycle(), s.Cycle()
			if ok {
				rr.have, rr.cmd, rr.tag = true, rsp.CmdCode, rsp.TAG
				rr.dinv, rr.errstat = rsp.DINV, rsp.ERRSTAT
				rr.payload = append([]uint64(nil), rsp.Payload...)
				sim.ReleaseRsp(rsp)
			}
			total[0] += t1.Sub(t0)
			total[1] += t2.Sub(t1)
			total[2] += t3.Sub(t2)
			count++
			r.attempted++
			if !reflect.DeepEqual(rr, log[k]) {
				r.failed++
				r.fail("hmcd replay: session %d round %d: wire %+v, in-process %+v", i, k, log[k], rr)
			}
		}
	}
	us := func(d time.Duration) float64 { return ratio(float64(d), float64(count)) / 1e3 }
	return map[string]float64{
		"send": us(total[0]), "clock_until_recv": us(total[1]), "recv": us(total[2]),
		"batch": us(total[0] + total[1] + total[2]),
	}, nil
}

func (b *hmcdBench) finish(r *report, ts *traceSet) error {
	if b.problem != nil {
		r.fail("%s: %v", b.o.workload, b.problem)
	}
	replayUs, err := b.replay(r)
	if err != nil {
		return err
	}
	for op, v := range replayUs {
		r.vals["server.replay_sim_us."+op] = v
	}

	var counts [2]hmcdCounts
	for i := range counts {
		if counts[i], err = b.countPass(); err != nil {
			return err
		}
		r.attempted += int64(counts[i].ops)
	}
	if counts[0] != counts[1] {
		r.fail("%s: exact counts differ between identical passes: %+v vs %+v", b.o.workload, counts[0], counts[1])
	}
	c := counts[0]
	ops := float64(c.ops)
	r.vals["server.wire_bytes_per_op"] = float64(c.wireBytes) / ops
	r.vals["server.wire_writes_per_op"] = float64(c.wireWrites) / ops
	r.vals["sim.cycles_per_op"] = float64(c.adv) / ops
	putDeviceCounts(r, c.stats, ops)

	reg := b.srv.srv.Metrics()
	counter := func(name string) float64 {
		if m := reg.Lookup(name); m != nil {
			return m.Number()
		}
		return 0
	}
	r.vals["server.protocol_errors"] = counter("hmc_server_protocol_errors_total")
	r.vals["server.conns_dropped"] = counter("hmc_server_conns_dropped_total")
	if r.vals["server.protocol_errors"] != 0 || r.vals["server.conns_dropped"] != 0 {
		r.fail("%s: %v protocol errors, %v dropped connections", b.o.workload,
			r.vals["server.protocol_errors"], r.vals["server.conns_dropped"])
	}

	if b.o.trace {
		// Closing the fleet gives the close call its samples.
		ts.setOn(true)
		p := len(b.clients)
		err := fanout(p, func(k int) error {
			tr := ts.driver(k)
			for i := k; i < fleetSize; i += p {
				tr.begin(spCallClose, uint64(i))
				err := b.clients[k].cl.CloseSession(b.ids[i])
				tr.end()
				if err != nil {
					return fmt.Errorf("close %d: %w", i, err)
				}
			}
			return nil
		})
		ts.setOn(false)
		if err != nil {
			return err
		}
		b.ids = nil
	}
	spans := map[string]spanName{
		"send": spCallSend, "clock_until_recv": spCallCUR, "recv": spCallRecv,
		"batch": spCallBatch, "init": spCallInit, "close": spCallClose,
	}
	for _, op := range serverOps {
		durs := ts.durations(spans[op])
		p50, p99, _ := latencySummary(durs, 99)
		r.vals["server.call_us_p50."+op], r.vals["server.call_us_p99."+op] = p50, p99
		exec := 0.0
		if m := reg.Lookup("hmc_server_op_latency_ns", metrics.L("op", op)); m != nil {
			if h, ok := m.Histogram(); ok {
				exec = h.Avg() / 1e3
			}
		}
		r.vals["server.exec_us."+op] = exec
		if len(durs) > 0 {
			r.vals["server.hop_us."+op] = ts.meanUs(spans[op]) - exec
		}
	}
	r.vals["trace.root_self_share"] = ts.rootSelfShare(spRound)

	tables, err := sweepTable(r)
	if err != nil {
		return err
	}
	r.vals["table6_avg_err_pct"] = table6ErrPct(tables)
	return nil
}

func (b *hmcdBench) close() {
	for _, c := range b.clients {
		c.cl.Close()
	}
	b.clients = nil
	if b.srv != nil {
		if err := b.srv.close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: closing server:", err)
		}
		b.srv = nil
	}
}
