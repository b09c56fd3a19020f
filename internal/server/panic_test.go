package server

import (
	"testing"

	"repro/internal/cmc"
	"repro/internal/hmccmd"
)

// panicOp is a CMC operation with a bug: its execute function panics.
type panicOp struct{}

func (panicOp) Register() cmc.Descriptor {
	return cmc.Descriptor{
		OpName:  "test_panic",
		Rqst:    hmccmd.CMC70,
		Cmd:     70,
		RqstLen: 2,
		RspLen:  2,
		RspCmd:  hmccmd.WrRS,
	}
}

func (panicOp) Str() string { return "test_panic" }

func (panicOp) Execute(*cmc.ExecContext) error { panic("test_panic: bad operation") }

func init() { cmc.RegisterFactory("test_panic", func() cmc.Operation { return panicOp{} }) }

// TestSessionPanicIsolated drives a CMC op that panics inside the
// simulator. Only that session fails, with CodeInternal; it is gone
// afterwards, its simulator never reaches the pool, the panic is
// counted, and a session on the same shard keeps serving.
func TestSessionPanicIsolated(t *testing.T) {
	for _, batched := range []bool{false, true} {
		srv, cl := newTestPair(t, Config{Shards: 1})
		good, err := cl.Init("2gb-dev")
		if err != nil {
			t.Fatal(err)
		}
		bad, err := cl.Init("2gb-dev")
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.LoadCMC(bad, "test_panic"); err != nil {
			t.Fatal(err)
		}
		acc, err := cl.Send(bad, 0, hmccmd.CMC70.Code(), 0, 0x40, 1, []uint64{1, 0})
		if err != nil || !acc {
			t.Fatalf("send: accepted=%v err=%v", acc, err)
		}
		if batched {
			b := cl.NewBatch(bad)
			b.Clock()
			b.Clock()
			_, err = b.Do()
		} else {
			_, err = cl.ClockN(bad, 4)
		}
		wantCode(t, err, CodeInternal)

		if _, err := cl.Clock(bad); err == nil {
			t.Fatal("panicked session still serves")
		} else {
			wantCode(t, err, CodeNoSession)
		}
		if n := srv.pool.size(); n != 0 {
			t.Fatalf("pool holds %d simulators, want the panicked one dropped", n)
		}
		if n := srv.ActiveSessions(); n != 1 {
			t.Fatalf("active sessions = %d, want 1", n)
		}
		if got := srv.met.panics.Value(); got != 1 {
			t.Fatalf("hmc_server_session_panics_total = %d, want 1", got)
		}

		// The other session on the same shard still runs a round trip.
		if acc, err := cl.Send(good, 0, hmccmd.RD64.Code(), 0, 0x1000, 2, nil); err != nil || !acc {
			t.Fatalf("good session send: accepted=%v err=%v", acc, err)
		}
		if _, avail, err := cl.ClockUntilRecv(good, 4096); err != nil || !avail {
			t.Fatalf("good session clock_until_recv: avail=%v err=%v", avail, err)
		}
		if rsp, err := cl.Recv(good, 0); err != nil || !rsp.Have || rsp.Tag != 2 {
			t.Fatalf("good session recv = %+v, %v", rsp, err)
		}
		if _, err := cl.Init("2gb-dev"); err != nil {
			t.Fatalf("new session after a panic: %v", err)
		}
	}
}
