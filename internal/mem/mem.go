// Package mem implements the sparse DRAM backing store for simulated HMC
// devices.
//
// An HMC device presents up to 8 GB of physical storage; allocating that
// eagerly per simulated device would be wasteful, so the store allocates
// fixed-size pages on first write. Reads of never-written memory return
// zeros, matching the simulator's "initialized to a known state"
// assumption (paper §V-A).
//
// The minimum DRAM access granularity in the HMC is 16 bytes (one FLIT of
// data, paper §V-A), so the store provides 16-byte block accessors used by
// the atomic and CMC execution units, alongside arbitrary-span accessors
// used by the read/write datapath.
//
// # Ownership
//
// A store belongs to one device and is touched only by the goroutine
// that drives it, so it takes no locks. Only the pool of zeroed pages
// is shared, process-wide, between stores.
package mem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// PageBytes is the allocation granularity of the sparse store.
const PageBytes = 4096

// BlockBytes is the minimum DRAM access granularity (one data FLIT).
const BlockBytes = 16

// Errors returned by the store.
var (
	// ErrOutOfBounds reports an access beyond the configured capacity.
	ErrOutOfBounds = errors.New("mem: access out of bounds")
	// ErrUnaligned reports a block access not aligned to 16 bytes.
	ErrUnaligned = errors.New("mem: block access not 16-byte aligned")
)

// pagePool is the process-wide free list of zeroed pages, shared by every
// store. A server hosting thousands of short-lived sessions churns pages
// constantly — one session's released pages become the next session's
// first writes without a round trip through the allocator. Pages are
// scrubbed on the way in (releasePage), so newPage always returns
// all-zero memory and reads cannot distinguish a recycled page from a
// fresh one.
var pagePool = sync.Pool{New: func() any { return new([PageBytes]byte) }}

func newPage() *[PageBytes]byte { return pagePool.Get().(*[PageBytes]byte) }

func releasePage(p *[PageBytes]byte) {
	clear(p[:])
	pagePool.Put(p)
}

// Store is a sparse, lazily allocated memory of fixed capacity. It is
// single-owner: no method is safe for concurrent use.
type Store struct {
	// pages is the page table, created on first write (reads of a nil
	// map are legal and return the zero value).
	pages    map[uint64]*[PageBytes]byte
	capacity uint64
}

// New returns a store of the given capacity in bytes.
func New(capacity uint64) *Store { return &Store{capacity: capacity} }

// Capacity returns the configured capacity in bytes.
func (s *Store) Capacity() uint64 { return s.capacity }

// AllocatedBytes returns the number of bytes of page storage currently
// materialized.
func (s *Store) AllocatedBytes() uint64 { return uint64(len(s.pages)) * PageBytes }

func (s *Store) check(addr uint64, n int) error {
	if n < 0 || addr >= s.capacity || uint64(n) > s.capacity-addr {
		return fmt.Errorf("%w: addr %#x len %d capacity %#x", ErrOutOfBounds, addr, n, s.capacity)
	}
	return nil
}

// page returns the materialized page containing addr, or nil.
func (s *Store) page(addr uint64) *[PageBytes]byte {
	return s.pages[addr/PageBytes]
}

// ensurePage returns the page containing addr, materializing it if
// needed.
func (s *Store) ensurePage(addr uint64) *[PageBytes]byte {
	idx := addr / PageBytes
	page, ok := s.pages[idx]
	if !ok {
		if s.pages == nil {
			s.pages = make(map[uint64]*[PageBytes]byte)
		}
		page = newPage()
		s.pages[idx] = page
	}
	return page
}

// Read copies len(p) bytes starting at addr into p. Unwritten memory
// reads as zero.
func (s *Store) Read(addr uint64, p []byte) error {
	if err := s.check(addr, len(p)); err != nil {
		return err
	}
	for done := 0; done < len(p); {
		a := addr + uint64(done)
		off := int(a % PageBytes)
		n := min(len(p)-done, PageBytes-off)
		if page := s.page(a); page != nil {
			copy(p[done:done+n], page[off:off+n])
		} else {
			clear(p[done : done+n])
		}
		done += n
	}
	return nil
}

// Write copies p into the store starting at addr, materializing pages as
// needed.
func (s *Store) Write(addr uint64, p []byte) error {
	if err := s.check(addr, len(p)); err != nil {
		return err
	}
	for done := 0; done < len(p); {
		a := addr + uint64(done)
		off := int(a % PageBytes)
		n := min(len(p)-done, PageBytes-off)
		copy(s.ensurePage(a)[off:off+n], p[done:done+n])
		done += n
	}
	return nil
}

// ReadWords reads len(dst)*8 bytes at addr directly into little-endian
// 64-bit payload words — the zero-copy read datapath: no intermediate
// byte buffer, and a single page access when the span stays inside one
// page (every spec-legal DRAM request does).
func (s *Store) ReadWords(addr uint64, dst []uint64) error {
	n := len(dst) * 8
	if err := s.check(addr, n); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	if off := int(addr % PageBytes); off+n <= PageBytes {
		if page := s.page(addr); page != nil {
			for i := range dst {
				dst[i] = binary.LittleEndian.Uint64(page[off+8*i:])
			}
		} else {
			clear(dst)
		}
		return nil
	}
	// Cross-page span (host-side use only): fall back to the general
	// byte path one word at a time.
	var b [8]byte
	for i := range dst {
		if err := s.Read(addr+uint64(8*i), b[:]); err != nil {
			return err
		}
		dst[i] = binary.LittleEndian.Uint64(b[:])
	}
	return nil
}

// WriteWords writes n bytes at addr from little-endian payload words,
// zero-filling bytes beyond the supplied words — the zero-copy write
// datapath mirroring ReadWords. n must be a multiple of 8.
func (s *Store) WriteWords(addr uint64, src []uint64, n int) error {
	if err := s.check(addr, n); err != nil {
		return err
	}
	if n%8 != 0 {
		return fmt.Errorf("%w: WriteWords length %d not word-aligned", ErrUnaligned, n)
	}
	if n == 0 {
		return nil
	}
	words := n / 8
	if off := int(addr % PageBytes); off+n <= PageBytes {
		page := s.ensurePage(addr)
		for i := 0; i < words; i++ {
			var v uint64
			if i < len(src) {
				v = src[i]
			}
			binary.LittleEndian.PutUint64(page[off+8*i:], v)
		}
		return nil
	}
	var b [8]byte
	for i := 0; i < words; i++ {
		var v uint64
		if i < len(src) {
			v = src[i]
		}
		binary.LittleEndian.PutUint64(b[:], v)
		if err := s.Write(addr+uint64(8*i), b[:]); err != nil {
			return err
		}
	}
	return nil
}

// ReadUint64 reads a little-endian 64-bit word at addr.
func (s *Store) ReadUint64(addr uint64) (uint64, error) {
	if err := s.check(addr, 8); err != nil {
		return 0, err
	}
	if off := int(addr % PageBytes); off+8 <= PageBytes {
		var v uint64
		if page := s.page(addr); page != nil {
			v = binary.LittleEndian.Uint64(page[off:])
		}
		return v, nil
	}
	var b [8]byte
	if err := s.Read(addr, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteUint64 writes a little-endian 64-bit word at addr.
func (s *Store) WriteUint64(addr, v uint64) error {
	if err := s.check(addr, 8); err != nil {
		return err
	}
	if off := int(addr % PageBytes); off+8 <= PageBytes {
		binary.LittleEndian.PutUint64(s.ensurePage(addr)[off:], v)
		return nil
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return s.Write(addr, b[:])
}

// Block is one 16-byte DRAM block viewed as two little-endian 64-bit
// words; Lo holds bytes [7:0] (bits [63:0] in the paper's mutex layout)
// and Hi holds bytes [15:8] (bits [127:64]).
type Block struct {
	Lo, Hi uint64
}

// ReadBlock reads the aligned 16-byte block at addr directly from its
// page — no intermediate byte-slice marshaling.
func (s *Store) ReadBlock(addr uint64) (Block, error) {
	if addr%BlockBytes != 0 {
		return Block{}, fmt.Errorf("%w: addr %#x", ErrUnaligned, addr)
	}
	if err := s.check(addr, BlockBytes); err != nil {
		return Block{}, err
	}
	var blk Block
	if page := s.page(addr); page != nil {
		off := int(addr % PageBytes)
		blk.Lo = binary.LittleEndian.Uint64(page[off:])
		blk.Hi = binary.LittleEndian.Uint64(page[off+8:])
	}
	return blk, nil
}

// WriteBlock writes the aligned 16-byte block at addr directly into its
// page.
func (s *Store) WriteBlock(addr uint64, blk Block) error {
	if addr%BlockBytes != 0 {
		return fmt.Errorf("%w: addr %#x", ErrUnaligned, addr)
	}
	if err := s.check(addr, BlockBytes); err != nil {
		return err
	}
	page := s.ensurePage(addr)
	off := int(addr % PageBytes)
	binary.LittleEndian.PutUint64(page[off:], blk.Lo)
	binary.LittleEndian.PutUint64(page[off+8:], blk.Hi)
	return nil
}

// Reset returns the store to all-zeros, scrubbing every materialized
// page back to the shared page pool. The page table survives with its
// entries cleared, so a reused store re-materializes into warm map
// buckets. Use Zero to return to all-zeros while keeping the pages
// materialized (the simulator-reuse fast path), or Trim to additionally
// drop the page table itself.
func (s *Store) Reset() {
	for idx, page := range s.pages {
		releasePage(page)
		delete(s.pages, idx)
	}
}

// Trim releases every materialized page to the shared page pool and
// drops the page table, shrinking the store to its freshly built
// footprint. It is the idle-session heap diet: a pooled simulator that
// may sit unused holds no page storage, and the pages it scrubbed back
// seed the next session's first writes. Trim leaves the store all-zero,
// observationally identical to Reset.
func (s *Store) Trim() {
	for _, page := range s.pages {
		releasePage(page)
	}
	s.pages = nil
}

// Zero returns the store to all-zeros without dropping materialized
// pages: each page is block-cleared in place, so a reused simulator's
// next run rewrites warm pages instead of re-materializing them (page
// and page-table allocations are the bulk of a run's store cost). Reads
// cannot distinguish a zeroed page from an unmaterialized one, so Zero
// and Reset are observationally identical.
func (s *Store) Zero() {
	for _, page := range s.pages {
		clear(page[:])
	}
}
