package nand

import (
	"fmt"
	"math"
	"math/bits"

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
// A chunk's state is pointer-free — the garbage collector never scans it —
// and holds only what every stamped or timing-only sector needs: two flag
// words and the OOB stamp, whose logical address is a uint32 stored plus
// one so that the zero value is "never stamped" (NewArray refuses a
// geometry whose sectors a uint32 cannot number) and whose sequence number
// is a uint32 offset from a per-chunk base (see seqOf). That is 544 bytes,
// Go's 576-byte size class. Payloads are referenced by int32 handles into the
// array's slab arena (0 = none), kept in a slabSet beside the chunk rather
// than in it: an array allocates a chunk's set when one of its sectors
// first stores a payload, so a timing-only device, which never does, pays
// nothing for handles. All-zero is the erased state of both, a fresh or
// recycled one needs no fill loop, and Erase restores it with clear.
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
	written uint64               // bit i: sector i programmed since its last erase
	stamped uint64               // bit i: sector i carries an OOB stamp
	seqBase int64                // a stamp's sequence number is seqBase + oobSeq[i]
	wide    bool                 // the sequence numbers are in Array.wideSeqs instead
	oobLPA  [chunkSectors]uint32 // stamped logical address + 1; 0 = never stamped
	oobSeq  [chunkSectors]uint32 // stamped sequence number - seqBase
}

// A stamp's sequence number is an int64, stored as an offset from the
// chunk's seqBase: the first stamp a chunk takes while it holds none sets
// the base, and the stamps after it are programs into the same 64 sectors,
// issued after it and numbered in the same stream. An offset that does not
// fit in 32 bits — a relocated sector keeping an older number (CopyOOB), or
// four billion stamps elsewhere between two into one chunk — widens the
// chunk: its numbers move to a 64-bit array beside it until it holds no
// stamp again. The stored values are exact either way.

// seqOf returns the sequence number of stamped sector i of chunk c, whose
// index is ci.
func (a *Array) seqOf(c *sectorChunk, ci, i int64) int64 {
	if c.wide {
		return a.wideSeqs[ci][i]
	}
	return c.seqBase + int64(c.oobSeq[i])
}

// setSeq stores seq as the sequence number of sector i of chunk c (index
// ci), widening the chunk when the offset does not fit. A caller stamping a
// chunk that holds no stamp sets c.seqBase first.
func (a *Array) setSeq(c *sectorChunk, ci, i, seq int64) {
	if !c.wide {
		if d := uint64(seq - c.seqBase); d <= math.MaxUint32 { // d wraps above the bound when seq < seqBase
			c.oobSeq[i] = uint32(d)
			return
		}
		a.widen(c, ci)
	}
	a.wideSeqs[ci][i] = seq
}

// widen moves chunk ci's sequence numbers to a 64-bit array.
func (a *Array) widen(c *sectorChunk, ci int64) {
	if a.wideSeqs == nil {
		a.wideSeqs = make(map[int64]*[chunkSectors]int64)
	}
	w := new([chunkSectors]int64)
	for m := c.stamped; m != 0; m &= m - 1 {
		i := int64(bits.TrailingZeros64(m))
		w[i] = c.seqBase + int64(c.oobSeq[i])
	}
	a.wideSeqs[ci] = w
	clear(c.oobSeq[:])
	c.seqBase, c.wide = 0, true
}

// unstamp clears the stamps of sectors [from, to) of chunk c (index ci); a
// chunk left without a stamp drops its base and any wide array, back to
// all-zero.
func (a *Array) unstamp(c *sectorChunk, ci, from, to int64) {
	clear(c.oobLPA[from:to])
	clear(c.oobSeq[from:to])
	if c.wide {
		clear(a.wideSeqs[ci][from:to])
	}
	if c.stamped &^= chunkBits(from, to); c.stamped == 0 {
		if c.wide {
			delete(a.wideSeqs, ci)
		}
		c.seqBase, c.wide = 0, false
	}
}

// slabSet holds the payload slab handles of one state chunk's sectors; 0 =
// no stored payload, and only programmed sectors hold one.
type slabSet [chunkSectors]int32

// setOf returns the slab handles of state chunk ci, or nil when no sector
// of it holds a payload.
func (a *Array) setOf(ci int64) *slabSet {
	if a.slabs.sets == nil {
		return nil
	}
	return a.slabs.sets[ci]
}

// storeSet is setOf for a store: it gives chunk ci a set, from the freelist
// or new, when the chunk stores its first payload.
func (a *Array) storeSet(ci int64) *slabSet {
	if a.slabs.sets == nil {
		a.slabs.sets = make([]*slabSet, len(a.chunks))
	}
	s := a.slabs.sets[ci]
	if s == nil {
		if n := len(a.slabs.freeSets); n > 0 {
			s = a.slabs.freeSets[n-1]
			a.slabs.freeSets[n-1] = nil
			a.slabs.freeSets = a.slabs.freeSets[:n-1]
		} else {
			s = new(slabSet)
		}
		a.slabs.sets[ci] = s
	}
	return s
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
// (overwrite release); a chunk without a slab set (every chunk of a
// timing-only device) has none to look for.
func (a *Array) programRun(idx, n int64, sectors [][]byte) {
	for end := idx + n; idx < end; {
		c, ci := a.touch(idx), idx>>chunkShift
		from := idx & chunkMask
		to := min(chunkSectors, from+end-idx)
		c.written |= chunkBits(from, to)
		if s := a.setOf(ci); s != nil {
			for i, h := range s[from:to] {
				if h != 0 {
					a.slabs.put(h)
					s[from+int64(i)] = 0
				}
			}
		}
		if sectors != nil {
			for i, src := range sectors[:to-from] {
				if src != nil {
					h := a.slabs.get()
					copy(a.slabs.buf(h), src)
					a.storeSet(ci)[from+int64(i)] = h
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
			s := a.setOf(ci)
			if s != nil {
				for _, h := range s[from:to] {
					if h != 0 {
						a.slabs.put(h)
					}
				}
				clear(s[from:to])
			}
			a.unstamp(c, ci, from, to)
			c.written &^= chunkBits(from, to)
			if c.written|c.stamped == 0 {
				// No sector is programmed, so the set holds no handle.
				a.chunks[ci] = nil
				a.freeChunks = append(a.freeChunks, c)
				if s != nil {
					a.slabs.sets[ci] = nil
					a.slabs.freeSets = append(a.slabs.freeSets, s)
				}
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
	if ss := a.setOf(int64(src) >> chunkShift); ss != nil {
		h = ss[src&chunkMask]
	}
	ds := a.setOf(int64(dst) >> chunkShift)
	if h != 0 {
		a.slabs.refs[h-1]++ // before the release below: dst may already hold h
		ds = a.storeSet(int64(dst) >> chunkShift)
	}
	if ds == nil {
		return // nothing held, nothing to share
	}
	if old := ds[i]; old != 0 {
		a.slabs.put(old)
	}
	ds[i] = h
}

// CheckSlabRefs is the slab arena's accounting identity: every handle's
// count equals the number of sectors holding it, the free stack holds
// exactly the handles no sector holds, each once, no sector holds a freed
// handle, and only a programmed sector holds one (what lets an erase that
// empties a chunk recycle its slab set without reading it). An array that
// never stored a payload has nothing to check.
func (a *Array) CheckSlabRefs() error {
	p := &a.slabs
	if p.issued == 0 {
		return nil
	}
	held := make([]int32, p.issued+1)
	for ci, s := range a.slabs.sets {
		if s == nil {
			continue
		}
		c := a.chunks[ci]
		for i, h := range s {
			sector := int64(ci)<<chunkShift + int64(i)
			switch {
			case h < 0 || h > p.issued:
				return fmt.Errorf("nand: sector %d holds slab %d, outside the %d issued", sector, h, p.issued)
			case h != 0 && (c == nil || c.written>>uint(i)&1 == 0):
				return fmt.Errorf("nand: sector %d holds slab %d but is not programmed", sector, h)
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
// included, comes from get. The arena also keeps which sector holds which
// handle, one slabSet per state chunk that stored a payload: while none
// did (a timing-only device) sets is nil and Payload reads nothing but it.
type slabArena struct {
	blocks [][]byte // slabsPerBlock sector buffers each
	issued int32    // handles 1..issued exist; 0 = no payload was ever stored
	refs   []int32  // refs[h-1]: how many sectors hold handle h
	free   []int32  // handles no sector holds

	sets     []*slabSet // by state chunk; nil until the first stored payload
	freeSets []*slabSet // all-zero sets released with their chunks
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
