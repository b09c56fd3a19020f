package packet

import "repro/internal/hmccmd"

// MaxPayloadWords is the payload capacity of the largest architected
// packet: hmccmd.MaxPacketFlits FLITs leave
// WordsPerFlit*(MaxPacketFlits-1) data words between header and tail.
const MaxPayloadWords = WordsPerFlit * (hmccmd.MaxPacketFlits - 1)

// RspList is a free list of response packets owned by the one goroutine
// that builds them — in the simulator, a device's execute phase. Every
// response it hands out remembers its list, so PutRsp returns the
// packet to the list that built it no matter which layer releases it.
// A list and the responses drawn from it are single-owner: Get, PutRsp
// and Trim must all run on the owning goroutine. The zero value is an
// empty list ready to use.
type RspList struct {
	free []*Rsp
}

// rspChunk is how many packets a miss allocates at once, so a list's
// packets sit together in memory instead of scattered among other
// objects of their size.
const rspChunk = 8

// Get returns a response owned by l with every field zeroed and Payload
// sized to payloadWords zeroed words. Callers that fill the payload via
// an execute context rely on it starting at zero, exactly like a fresh
// allocation. A recycled packet keeps its payload backing array when it
// is large enough; otherwise the payload is allocated at exactly
// payloadWords, so a list's packets grow only to the largest response
// their commands need.
func (l *RspList) Get(payloadWords int) *Rsp {
	if len(l.free) == 0 {
		chunk := make([]Rsp, rspChunk)
		for i := range chunk {
			l.free = append(l.free, &chunk[i])
		}
	}
	p := l.free[len(l.free)-1]
	l.free = l.free[:len(l.free)-1]
	pl := p.Payload
	if cap(pl) < payloadWords {
		pl = make([]uint64, payloadWords)
	} else {
		pl = pl[:payloadWords]
		clear(pl)
	}
	*p = Rsp{Payload: pl, home: l}
	return p
}

// Trim drops every packet on the list. Responses still out come back to
// it when released.
func (l *RspList) Trim() { l.free = nil }

// PutRsp returns a response to the free list that built it, where the
// next Get on that list hands it out again. The caller must not retain
// p or its payload afterwards, and must call PutRsp on the goroutine
// that owns the list — for a simulator response, the goroutine driving
// that simulator. Putting nil, or a response no list built (a decoded
// or hand-made packet), is a no-op, so release paths can pass whatever
// Recv handed back without checking.
func PutRsp(p *Rsp) {
	if p == nil || p.home == nil {
		return
	}
	p.home.free = append(p.home.free, p)
}
