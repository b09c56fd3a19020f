package mem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestReadUnwrittenIsZero(t *testing.T) {
	s := New(1 << 20)
	buf := make([]byte, 64)
	for i := range buf {
		buf[i] = 0xFF
	}
	if err := s.Read(0x1234, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, 64)) {
		t.Error("unwritten memory did not read as zero")
	}
	if s.AllocatedBytes() != 0 {
		t.Errorf("read materialized %d bytes", s.AllocatedBytes())
	}
}

func TestReadAfterWrite(t *testing.T) {
	s := New(1 << 20)
	want := []byte("hybrid memory cube gen2")
	if err := s.Write(0x7FF0, want); err != nil { // spans a page boundary
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := s.Read(0x7FF0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestReadAfterWriteQuick(t *testing.T) {
	s := New(1 << 24)
	f := func(addr uint32, data []byte) bool {
		a := uint64(addr) % (1<<24 - 4096)
		if len(data) > 4096 {
			data = data[:4096]
		}
		if err := s.Write(a, data); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if err := s.Read(a, got); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUint64Accessors(t *testing.T) {
	s := New(1 << 16)
	if err := s.WriteUint64(128, 0xDEADBEEFCAFEF00D); err != nil {
		t.Fatal(err)
	}
	v, err := s.ReadUint64(128)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xDEADBEEFCAFEF00D {
		t.Errorf("got %#x", v)
	}
	// Little-endian layout: low byte first.
	b := make([]byte, 1)
	if err := s.Read(128, b); err != nil {
		t.Fatal(err)
	}
	if b[0] != 0x0D {
		t.Errorf("byte 0 = %#x, want 0x0d (little endian)", b[0])
	}
}

func TestBlockAccessors(t *testing.T) {
	s := New(1 << 16)
	blk := Block{Lo: 1, Hi: 0xABCD}
	if err := s.WriteBlock(256, blk); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadBlock(256)
	if err != nil {
		t.Fatal(err)
	}
	if got != blk {
		t.Errorf("got %+v, want %+v", got, blk)
	}
	// Block view must agree with the word view: Lo at base, Hi at base+8.
	lo, _ := s.ReadUint64(256)
	hi, _ := s.ReadUint64(264)
	if lo != blk.Lo || hi != blk.Hi {
		t.Errorf("word view (%#x,%#x) disagrees with block view %+v", lo, hi, blk)
	}
}

func TestBlockAlignment(t *testing.T) {
	s := New(1 << 16)
	if _, err := s.ReadBlock(8); !errors.Is(err, ErrUnaligned) {
		t.Errorf("unaligned read: %v", err)
	}
	if err := s.WriteBlock(24, Block{}); !errors.Is(err, ErrUnaligned) {
		t.Errorf("unaligned write: %v", err)
	}
}

func TestBounds(t *testing.T) {
	s := New(1024)
	if err := s.Write(1020, make([]byte, 8)); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("overlapping write: %v", err)
	}
	if err := s.Read(1024, make([]byte, 1)); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("read at capacity: %v", err)
	}
	if err := s.Write(0, make([]byte, 1024)); err != nil {
		t.Errorf("full-capacity write rejected: %v", err)
	}
	if _, err := s.ReadUint64(1020); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("straddling word read: %v", err)
	}
}

func TestReset(t *testing.T) {
	s := New(1 << 16)
	if err := s.WriteUint64(0, 42); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	if s.AllocatedBytes() != 0 {
		t.Error("Reset left pages allocated")
	}
	v, err := s.ReadUint64(0)
	if err != nil || v != 0 {
		t.Errorf("after Reset: %d, %v", v, err)
	}
}

// TestTrimScrubsToPool pins the page-pool contract: Trim drops every
// materialized page, the store stays observationally all-zero, and a
// page recycled through the pool reads as zero on its next
// materialization (releasePage scrubs before pooling).
func TestTrimScrubsToPool(t *testing.T) {
	s := New(1 << 20)
	for addr := uint64(0); addr < 8*PageBytes; addr += 512 {
		if err := s.WriteUint64(addr, ^uint64(0)); err != nil {
			t.Fatal(err)
		}
	}
	s.Trim()
	if got := s.AllocatedBytes(); got != 0 {
		t.Errorf("Trim left %d bytes allocated", got)
	}
	// Re-materialize: every page drawn (likely from the pool just fed)
	// must read back zero outside the bytes written.
	for addr := uint64(0); addr < 8*PageBytes; addr += PageBytes {
		if err := s.WriteUint64(addr, 7); err != nil {
			t.Fatal(err)
		}
		if v, err := s.ReadUint64(addr + 64); err != nil || v != 0 {
			t.Fatalf("recycled page dirty at %#x: %d, %v", addr+64, v, err)
		}
	}
}

// TestZeroKeepsPages pins the simulator-reuse fast path: Zero returns
// the store to all-zeros (observationally identical to Reset) while
// keeping every materialized page allocated for the next run.
func TestZeroKeepsPages(t *testing.T) {
	s := New(1 << 20)
	for addr := uint64(0); addr < 8*PageBytes; addr += 512 {
		if err := s.WriteUint64(addr, addr|1); err != nil {
			t.Fatal(err)
		}
	}
	allocated := s.AllocatedBytes()
	if allocated == 0 {
		t.Fatal("writes materialized no pages")
	}
	s.Zero()
	if got := s.AllocatedBytes(); got != allocated {
		t.Errorf("Zero changed allocation: %d -> %d bytes", allocated, got)
	}
	for addr := uint64(0); addr < 8*PageBytes; addr += 512 {
		if v, err := s.ReadUint64(addr); err != nil || v != 0 {
			t.Fatalf("after Zero: addr %#x reads %d, %v", addr, v, err)
		}
	}
}

func TestSparseAllocation(t *testing.T) {
	s := New(8 << 30) // 8 GB device
	if err := s.WriteUint64(7<<30, 1); err != nil {
		t.Fatal(err)
	}
	if got := s.AllocatedBytes(); got != PageBytes {
		t.Errorf("allocated %d bytes for one word, want one page (%d)", got, PageBytes)
	}
}

// TestConcurrentAccess drives one store per goroutine, the way
// independent simulators run side by side: stores share only the page
// pool, so under -race this proves that sharing is safe, and every
// store must read back exactly its own writes.
func TestConcurrentAccess(t *testing.T) {
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			s := New(1 << 20)
			for i := 0; i < 100; i++ {
				addr := uint64(i%16) * PageBytes
				if err := s.WriteUint64(addr, uint64(g<<8|i)); err != nil {
					done <- err
					return
				}
				if v, err := s.ReadUint64(addr); err != nil || v != uint64(g<<8|i) {
					done <- fmt.Errorf("store %d: read %#x, %v", g, v, err)
					return
				}
				if i%32 == 31 {
					s.Trim() // feed the shared pool other stores draw from
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreMatchesFlatModel drives random traffic through every
// accessor and checks each read against a flat byte array holding the
// same writes.
func TestStoreMatchesFlatModel(t *testing.T) {
	const capacity = 1 << 16
	s := New(capacity)
	model := make([]byte, capacity)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		addr := uint64(rng.Intn(capacity))
		switch rng.Intn(6) {
		case 0: // bulk write, possibly spanning pages
			n := rng.Intn(300) + 1
			addr = min(addr, capacity-uint64(n))
			p := make([]byte, n)
			rng.Read(p)
			if err := s.Write(addr, p); err != nil {
				t.Fatal(err)
			}
			copy(model[addr:], p)
		case 1: // bulk read
			n := rng.Intn(300) + 1
			addr = min(addr, capacity-uint64(n))
			got := make([]byte, n)
			if err := s.Read(addr, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, model[addr:addr+uint64(n)]) {
				t.Fatalf("Read mismatch at %#x len %d", addr, n)
			}
		case 2: // aligned block write
			addr &^= BlockBytes - 1
			blk := Block{Lo: rng.Uint64(), Hi: rng.Uint64()}
			if err := s.WriteBlock(addr, blk); err != nil {
				t.Fatal(err)
			}
			binary.LittleEndian.PutUint64(model[addr:], blk.Lo)
			binary.LittleEndian.PutUint64(model[addr+8:], blk.Hi)
		case 3: // aligned block read
			addr &^= BlockBytes - 1
			blk, err := s.ReadBlock(addr)
			if err != nil {
				t.Fatal(err)
			}
			want := Block{Lo: binary.LittleEndian.Uint64(model[addr:]), Hi: binary.LittleEndian.Uint64(model[addr+8:])}
			if blk != want {
				t.Fatalf("ReadBlock mismatch at %#x: %+v, want %+v", addr, blk, want)
			}
		case 4: // word write, possibly straddling a page
			addr = min(addr, capacity-8)
			v := rng.Uint64()
			if err := s.WriteUint64(addr, v); err != nil {
				t.Fatal(err)
			}
			binary.LittleEndian.PutUint64(model[addr:], v)
		case 5: // multi-word write and read back, possibly cross-page
			words := rng.Intn(16) + 1
			addr = min(addr&^7, capacity-uint64(8*words))
			src := make([]uint64, words)
			for j := range src {
				src[j] = rng.Uint64()
				binary.LittleEndian.PutUint64(model[addr+uint64(8*j):], src[j])
			}
			if err := s.WriteWords(addr, src, words*8); err != nil {
				t.Fatal(err)
			}
			got := make([]uint64, words)
			if err := s.ReadWords(addr, got); err != nil {
				t.Fatal(err)
			}
			for j := range got {
				if got[j] != src[j] {
					t.Fatalf("ReadWords mismatch at %#x word %d", addr, j)
				}
			}
		}
	}
}

// TestWriteWordsZeroFill checks that WriteWords zero-fills bytes beyond
// the supplied words, matching the device datapath's padding semantics.
func TestWriteWordsZeroFill(t *testing.T) {
	s := New(1 << 16)
	// Pre-dirty the range.
	dirty := bytes.Repeat([]byte{0xAA}, 64)
	if err := s.Write(0x40, dirty); err != nil {
		t.Fatal(err)
	}
	// Write 64 bytes but supply only 2 words.
	if err := s.WriteWords(0x40, []uint64{1, 2}, 64); err != nil {
		t.Fatal(err)
	}
	got := make([]uint64, 8)
	if err := s.ReadWords(0x40, got); err != nil {
		t.Fatal(err)
	}
	want := []uint64{1, 2, 0, 0, 0, 0, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("word %d = %#x, want %#x", i, got[i], want[i])
		}
	}
}

// TestWordsCrossPage exercises the ReadWords/WriteWords fallback for
// host-side spans that cross a page boundary.
func TestWordsCrossPage(t *testing.T) {
	s := New(1 << 16)
	// 16 words = 128 bytes starting 8 bytes before a page boundary.
	addr := uint64(PageBytes - 8)
	src := make([]uint64, 16)
	for i := range src {
		src[i] = uint64(i) * 0x0101010101010101
	}
	if err := s.WriteWords(addr, src, len(src)*8); err != nil {
		t.Fatal(err)
	}
	got := make([]uint64, 16)
	if err := s.ReadWords(addr, got); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("word %d = %#x, want %#x", i, got[i], src[i])
		}
	}
	if n := s.AllocatedBytes(); n != 2*PageBytes {
		t.Errorf("cross-page span materialized %d bytes, want two pages", n)
	}
}

// TestWordsOutOfBounds checks that the word, block and span accessors
// reject accesses past or straddling the capacity.
func TestWordsOutOfBounds(t *testing.T) {
	s := New(1 << 16)
	if _, err := s.ReadBlock(1 << 16); err == nil {
		t.Fatal("ReadBlock past capacity: want error")
	}
	if err := s.WriteUint64(1<<16-4, 1); err == nil {
		t.Fatal("WriteUint64 straddling capacity: want error")
	}
	if err := s.ReadWords(1<<16-8, make([]uint64, 2)); err == nil {
		t.Fatal("ReadWords past capacity: want error")
	}
	if err := s.WriteWords(1<<16-8, []uint64{1, 2}, 16); err == nil {
		t.Fatal("WriteWords past capacity: want error")
	}
}

func BenchmarkWriteBlock(b *testing.B) {
	s := New(1 << 30)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.WriteBlock(uint64(i%4096)*16, Block{Lo: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadBlock(b *testing.B) {
	s := New(1 << 30)
	_ = s.WriteBlock(0, Block{Lo: 1, Hi: 2})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.ReadBlock(0); err != nil {
			b.Fatal(err)
		}
	}
}
