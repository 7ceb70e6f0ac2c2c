package nand

import (
	"github.com/conzone/conzone/internal/units"
)

// Media state is sparse: the array's resident memory follows the sectors
// that were programmed, not the geometry. The linear sector space is cut
// into fixed chunks of chunkSectors sectors; a chunk's state block is
// allocated when one of its sectors is first programmed (or stamped) and a
// sector of an absent chunk reads as erased — unwritten, no payload, no OOB
// stamp. Building an array therefore costs one pointer per chunk, and a
// device that programs k sectors holds O(k) bytes of media state.
//
// A chunk's state is pointer-free — the garbage collector never scans it:
// payloads are referenced by an int32 handle into the array's slab arena
// (0 = none), and the OOB logical address is stored plus one so that the
// zero value is "never stamped". All-zero is thus the erased state, a fresh
// or recycled chunk needs no fill loop, and Erase restores it with clear.
// Two flag words summarize the chunk — which sectors are programmed, which
// carry a stamp — so Erase knows it emptied a chunk without reading it, and
// a program or a stamp of a run sets a chunk's share of them with one mask:
// a 24-sector (96 KiB) program unit costs one or two chunk steps, not 24
// sector steps. Only a stored payload is copied sector by sector.
//
// Nothing the media model releases goes back to the garbage collector:
// an erase that leaves a chunk all-zero moves it to freeChunks, where the
// next first-program finds it, and payload slabs cycle between the sectors
// holding them and the arena's free-handle stack. On the steady state of a
// write-heavy workload the media model therefore allocates nothing, which
// is what keeps the emulator's wall-clock throughput at the ROADMAP's "as
// fast as the hardware allows" target instead of fighting the collector
// over one fresh 4 KiB buffer per programmed sector.
//
// The freelists are deliberately per-Array rather than a shared sync.Pool:
// a sync.Pool is a GC victim cache, so any allocation churn elsewhere in
// the process (a benchmark driver's payload arena, a fleet of sibling
// devices) periodically empties it and every subsequent program
// re-allocates and re-zeroes its slab. A plain per-device stack never
// interacts with the collector, costs no atomics, and keeps devices fully
// isolated (the fleet device-isolation audit relies on that).
//
// The flip side is a borrow discipline: Array.Payload returns the live slab,
// and once the sector's block is erased the slab is recycled and may be
// reprogrammed with unrelated data. See Payload.

// chunkSectors is the number of linear sectors one state chunk covers; 64
// makes the programmed flags of a chunk one machine word.
const (
	chunkShift   = 6
	chunkSectors = 1 << chunkShift
	chunkMask    = chunkSectors - 1
)

// sectorChunk is the state of chunkSectors consecutive linear sectors. The
// zero value is the erased state.
type sectorChunk struct {
	written uint64              // bit i: sector i programmed since its last erase
	stamped uint64              // bit i: sector i carries an OOB stamp
	slab    [chunkSectors]int32 // payload slab handle; 0 = no stored payload; only programmed sectors hold one
	oobLPA  [chunkSectors]int64 // stamped logical address + 1; 0 = never stamped
	oobSeq  [chunkSectors]int64 // program sequence number of the stamp
}

// chunkOf returns the state chunk holding linear sector idx, or nil when
// nothing in it was programmed since its last erase. idx must be in range.
func (a *Array) chunkOf(idx int64) *sectorChunk { return a.chunks[idx>>chunkShift] }

// touch returns the state chunk holding linear sector idx, taking one off
// the freelist (or allocating it) on the chunk's first use.
func (a *Array) touch(idx int64) *sectorChunk {
	c := a.chunks[idx>>chunkShift]
	if c == nil {
		if n := len(a.freeChunks); n > 0 {
			c = a.freeChunks[n-1]
			a.freeChunks[n-1] = nil
			a.freeChunks = a.freeChunks[:n-1]
		} else {
			c = new(sectorChunk)
		}
		a.chunks[idx>>chunkShift] = c
	}
	return c
}

// programRun marks the n linear sectors from idx programmed and stores
// their payloads, one state chunk at a time: each chunk the run covers is
// touched and has its programmed flags set once, not once per sector.
// sectors is nil or holds n entries; each non-nil one is copied into a
// slab, so the caller's buffer is never retained — that copy is the one
// per-sector step.
// A slab a sector still holds is released first (overwrite release); while
// no slab was ever issued (a timing-only device) there is none to look for.
func (a *Array) programRun(idx, n int64, sectors [][]byte) {
	for end := idx + n; idx < end; {
		c := a.touch(idx)
		from := idx & chunkMask
		to := min(chunkSectors, from+end-idx)
		c.written |= chunkBits(from, to)
		if a.slabs.issued != 0 {
			for i, h := range c.slab[from:to] {
				if h != 0 {
					a.slabs.put(h)
					c.slab[from+int64(i)] = 0
				}
			}
		}
		if sectors != nil {
			for i, src := range sectors[:to-from] {
				if src != nil {
					h := a.slabs.get()
					copy(a.slabs.buf(h), src)
					c.slab[from+int64(i)] = h
				}
			}
			sectors = sectors[to-from:]
		}
		idx += to - from
	}
}

// chunkBits returns a flag word with bits [from, to) set, 0 <= from < to <=
// chunkSectors.
func chunkBits(from, to int64) uint64 {
	return (^uint64(0) >> uint(chunkSectors-(to-from))) << uint(from)
}

// eraseSectors returns linear sectors [lo, hi) to the erased state,
// releasing their slabs, and recycles every chunk that ends up all-zero.
func (a *Array) eraseSectors(lo, hi int64) {
	for lo < hi {
		ci := lo >> chunkShift
		end := (ci + 1) << chunkShift
		if end > hi {
			end = hi
		}
		if c := a.chunks[ci]; c != nil {
			from, to := lo&chunkMask, (end-1)&chunkMask+1
			for _, h := range c.slab[from:to] {
				if h != 0 {
					a.slabs.put(h)
				}
			}
			clear(c.slab[from:to])
			clear(c.oobLPA[from:to])
			clear(c.oobSeq[from:to])
			mask := chunkBits(from, to)
			c.written &^= mask
			c.stamped &^= mask
			if c.written|c.stamped == 0 {
				a.chunks[ci] = nil
				a.freeChunks = append(a.freeChunks, c)
			}
		}
		lo = end
	}
}

// slabArena hands out sector-sized payload buffers addressed by handle.
// Buffers are carved from blocks of slabsPerBlock, so a handle resolves
// with arithmetic on a table small enough to stay in cache — a per-slab
// pointer table costs every payload read a second cache miss — and a device
// storing payloads allocates once per block, not once per sector. Released
// handles wait on the free stack. Handle 0 is never issued. Every handle,
// an opened image's included, comes from get: while issued is 0 (a
// timing-only device) no sector holds a payload and Payload reads no chunk.
type slabArena struct {
	blocks [][]byte // slabsPerBlock sector buffers each
	issued int32    // handles 1..issued exist; 0 = no payload was ever stored
	free   []int32  // released handles
}

const (
	slabBlockShift = 4
	slabsPerBlock  = 1 << slabBlockShift // 64 KiB per block
)

// get returns the handle of a free sector-sized buffer. Its contents are
// unspecified; callers overwrite it fully.
func (p *slabArena) get() int32 {
	if n := len(p.free); n > 0 {
		h := p.free[n-1]
		p.free = p.free[:n-1]
		return h
	}
	if int(p.issued) == len(p.blocks)*slabsPerBlock {
		p.blocks = append(p.blocks, make([]byte, slabsPerBlock*units.Sector))
	}
	p.issued++
	return p.issued
}

// put releases a handle previously obtained from get.
func (p *slabArena) put(h int32) { p.free = append(p.free, h) }

// buf returns the buffer behind a handle obtained from get. Only the block
// table is read to form the slice, never the (cold) block itself.
func (p *slabArena) buf(h int32) []byte {
	h--
	off := int64(h&(slabsPerBlock-1)) * units.Sector
	return p.blocks[h>>slabBlockShift][off : off+units.Sector : off+units.Sector]
}
