package nand

import (
	"fmt"

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
// sector steps. Only a payload the host hands in is copied sector by sector.
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
// A payload enters the media model once. A slab is immutable while any
// sector holds it and counts the sectors that do: the device's own
// movement paths — a combine reading staged sectors back into a program
// unit, staging GC migration, bad-block relocation — program the moved
// sectors without data and then point each at its source's slab
// (SharePayload) instead of copying 4 KiB again. A slab returns to the free
// stack once every sector holding it was overwritten or erased. An image
// stores a shared slab once per sector that holds it, so the file does not
// know about sharing, and an opened image holds private slabs.
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
// and once every sector holding it is erased the slab is recycled and may be
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
// A slab a sector still holds loses that sector's reference first
// (overwrite release); while no slab was ever issued (a timing-only device)
// there is none to look for.
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
// dropping each one's slab reference, and recycles every chunk that ends up
// all-zero.
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

// SharePayload points dst at src's stored payload without copying it: the
// two sectors hold one slab, which is recycled once both are erased. It is
// the payload half of a device-internal move, beside CopyOOB: the mover
// programs dst without data and then shares. dst must be programmed since
// its last erase — an unprogrammed dst is left as it is — and whatever it
// held is released first. A src without a payload leaves dst without one.
// On an array that never stored a payload it returns before touching a
// chunk.
func (a *Array) SharePayload(dst, src PPA) {
	if a.slabs.issued == 0 {
		return
	}
	dc := a.chunkOf(int64(dst))
	i := dst & chunkMask
	if dc == nil || dc.written>>uint(i)&1 == 0 {
		return
	}
	var h int32
	if sc := a.chunkOf(int64(src)); sc != nil {
		h = sc.slab[src&chunkMask]
	}
	if h != 0 {
		a.slabs.refs[h-1]++ // before the release below: dst may already hold h
	}
	if old := dc.slab[i]; old != 0 {
		a.slabs.put(old)
	}
	dc.slab[i] = h
}

// CheckSlabRefs is the slab arena's accounting identity: every handle's
// count equals the number of sectors holding it, the free stack holds
// exactly the handles no sector holds, each once, and no sector holds a
// freed handle. An array that never stored a payload has nothing to check.
func (a *Array) CheckSlabRefs() error {
	p := &a.slabs
	if p.issued == 0 {
		return nil
	}
	held := make([]int32, p.issued+1)
	for ci, c := range a.chunks {
		if c == nil {
			continue
		}
		for i, h := range c.slab {
			if h < 0 || h > p.issued {
				return fmt.Errorf("nand: sector %d holds slab %d, outside the %d issued", int64(ci)<<chunkShift+int64(i), h, p.issued)
			}
			held[h]++
		}
	}
	onFree := make([]bool, p.issued+1)
	for _, h := range p.free {
		switch {
		case h <= 0 || h > p.issued:
			return fmt.Errorf("nand: free stack holds slab %d, outside the %d issued", h, p.issued)
		case onFree[h]:
			return fmt.Errorf("nand: slab %d is on the free stack twice", h)
		case held[h] != 0:
			return fmt.Errorf("nand: slab %d is on the free stack but %d sectors hold it", h, held[h])
		}
		onFree[h] = true
	}
	for h := int32(1); h <= p.issued; h++ {
		switch {
		case p.refs[h-1] != held[h]:
			return fmt.Errorf("nand: slab %d counts %d holders, %d sectors hold it", h, p.refs[h-1], held[h])
		case held[h] == 0 && !onFree[h]:
			return fmt.Errorf("nand: slab %d is held by no sector and not on the free stack", h)
		}
	}
	return nil
}

// slabArena hands out sector-sized payload buffers addressed by handle.
// Buffers are carved from blocks of slabsPerBlock, so a handle resolves
// with arithmetic on a table small enough to stay in cache — a per-slab
// pointer table costs every payload read a second cache miss — and a device
// storing payloads allocates once per block, not once per sector. A handle
// counts the sectors holding it; one that no sector holds waits on the free
// stack. Handle 0 is never issued. Every handle, an opened image's
// included, comes from get: while issued is 0 (a timing-only device) no
// sector holds a payload and Payload reads no chunk.
type slabArena struct {
	blocks [][]byte // slabsPerBlock sector buffers each
	issued int32    // handles 1..issued exist; 0 = no payload was ever stored
	refs   []int32  // refs[h-1]: how many sectors hold handle h
	free   []int32  // handles no sector holds
}

const (
	slabBlockShift = 4
	slabsPerBlock  = 1 << slabBlockShift // 64 KiB per block
)

// get returns the handle of a free sector-sized buffer, counted as held by
// one sector. Its contents are unspecified; callers overwrite it fully.
func (p *slabArena) get() int32 {
	if n := len(p.free); n > 0 {
		h := p.free[n-1]
		p.free = p.free[:n-1]
		p.refs[h-1] = 1
		return h
	}
	if int(p.issued) == len(p.blocks)*slabsPerBlock {
		p.blocks = append(p.blocks, make([]byte, slabsPerBlock*units.Sector))
	}
	p.issued++
	p.refs = append(p.refs, 1)
	return p.issued
}

// put drops one sector's reference to a handle; the last one frees it.
func (p *slabArena) put(h int32) {
	if p.refs[h-1]--; p.refs[h-1] == 0 {
		p.free = append(p.free, h)
	}
}

// buf returns the buffer behind a handle obtained from get. Only the block
// table is read to form the slice, never the (cold) block itself.
func (p *slabArena) buf(h int32) []byte {
	h--
	off := int64(h&(slabsPerBlock-1)) * units.Sector
	return p.blocks[h>>slabBlockShift][off : off+units.Sector : off+units.Sector]
}
