// Package slc manages the SLC-mode block region that consumer zoned flash
// storage uses as a secondary write buffer (paper §II-A, §III-B). Premature
// write-buffer flushes land here through 4 KiB partial programming; data is
// later combined back into full programming units of the normal area, or
// migrated by the region's garbage collector.
//
// The region owns a set of SLC superblocks (the same per-chip block index
// across all chips). Writes append at a single write pointer that stripes
// consecutive 4 KiB sectors across chips, so per-chip programming stays
// in order while all channels work in parallel. Every staged sector is
// identified by a stable linear index (superblock * capacity + position)
// that upper layers embed in their physical sector numbers.
package slc

import (
	"errors"
	"fmt"

	"github.com/conzone/conzone/internal/nand"
	"github.com/conzone/conzone/internal/obs"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
)

// ErrNoSpace reports that an append cannot be satisfied without garbage
// collection (or at all).
var ErrNoSpace = errors.New("slc: no free staging space")

// Write is one staged sector: its logical address (kept as the reverse map
// for GC) and an optional 4 KiB payload.
type Write struct {
	LPA     int64
	Payload []byte
}

// Stats counts region activity.
type Stats struct {
	Staged      int64 // sectors appended by callers
	Migrated    int64 // sectors moved by GC
	Invalidated int64
	Collections int64 // GC cycles completed
	Erased      int64 // superblocks erased
	Retired     int64 // superblocks retired after program/erase failures
}

type superblock struct {
	validCount int
	inFree     bool

	// valid and lpa are the per-position liveness flags and reverse map.
	// They are nil until the superblock first takes data (bind, or a
	// recovery mount that finds it written), so a region costs what was
	// staged; a collected superblock keeps its cleared tables for reuse.
	valid []bool
	lpa   []int64

	// retired freezes the superblock out of service after a program or
	// erase failure: it is never written, collected or freed again, but any
	// live sectors it holds stay readable until they go stale.
	retired bool
}

// Region is the SLC staging area allocator and validity tracker.
type Region struct {
	arr    *nand.Array
	blocks []int // per-chip block indices owned by the region, ascending
	sbCap  int64 // sectors per superblock
	chips  int
	spp    int // sectors per page

	sbs          []superblock
	free         []int // free superblock ids, FIFO
	cur          int   // currently written superblock id, -1 when unbound
	pos          int64 // next linear sector inside cur
	retiredCount int   // superblocks frozen out of service

	stats Stats

	// Reused scratch storage: the staging path runs on every premature
	// flush, so per-call slices here would dominate the emulator's
	// steady-state allocation profile.
	idxScratch  []int64       // Append result accumulator (returned, then reused)
	pageScratch [][]byte      // one page's sector views for ProgramSLCPage
	pages       nand.PageRuns // per-page read batching in ReadSectors
	moveScratch []int64       // GC: victim's live indices
	wsScratch   []Write       // GC: migration writes
}

// NewRegion builds a region over the given per-chip block indices, which
// must all be SLC-mode blocks of the array. At least two superblocks are
// required: one to write and one as the GC migration reserve.
func NewRegion(arr *nand.Array, blocks []int) (*Region, error) {
	if arr == nil {
		return nil, fmt.Errorf("slc: nil array")
	}
	if len(blocks) < 2 {
		return nil, fmt.Errorf("slc: need at least 2 superblocks, got %d", len(blocks))
	}
	g := arr.Geometry()
	seen := make(map[int]bool)
	for _, b := range blocks {
		if b < 0 || b >= g.BlocksPerChip {
			return nil, fmt.Errorf("slc: block %d out of range", b)
		}
		if g.MediaOf(b) != nand.SLCMode {
			return nil, fmt.Errorf("slc: block %d is not SLC-mode", b)
		}
		if seen[b] {
			return nil, fmt.Errorf("slc: duplicate block %d", b)
		}
		seen[b] = true
	}
	r := &Region{
		arr:         arr,
		blocks:      append([]int(nil), blocks...),
		sbCap:       int64(g.Chips()) * int64(g.SLCPagesPerBlock) * int64(g.SectorsPerPage()),
		chips:       g.Chips(),
		spp:         g.SectorsPerPage(),
		cur:         -1,
		pageScratch: make([][]byte, g.SectorsPerPage()),
	}
	r.sbs = make([]superblock, len(blocks))
	r.free = make([]int, len(blocks))
	for i := range r.sbs {
		r.sbs[i].inFree = true
		r.free[i] = i
	}
	return r, nil
}

// tables makes superblock sb ready to track validity.
func (r *Region) tables(sb int) {
	if r.sbs[sb].valid == nil {
		r.sbs[sb].valid = make([]bool, r.sbCap)
		r.sbs[sb].lpa = make([]int64, r.sbCap)
	}
}

// live reports whether position pos of the superblock holds a live sector.
func (sb *superblock) live(pos int64) bool { return sb.valid != nil && sb.valid[pos] }

// SuperblockCount returns the number of superblocks the region owns.
func (r *Region) SuperblockCount() int { return len(r.sbs) }

// SectorsPerSuperblock returns the staging capacity of one superblock.
func (r *Region) SectorsPerSuperblock() int64 { return r.sbCap }

// TotalSectors returns the linear index space size.
func (r *Region) TotalSectors() int64 { return int64(len(r.sbs)) * r.sbCap }

// FreeSuperblocks returns how many superblocks are on the free list.
func (r *Region) FreeSuperblocks() int { return len(r.free) }

// Stats returns a snapshot of activity counters.
func (r *Region) Stats() Stats { return r.stats }

// remaining returns writable sectors without consuming a free superblock.
func (r *Region) remaining() int64 {
	if r.cur < 0 {
		return 0
	}
	return r.sbCap - r.pos
}

// HasSpace reports whether n sectors can be appended using the current
// superblock plus the free list, keeping one free superblock in reserve for
// GC migration.
func (r *Region) HasSpace(n int64) bool {
	return r.available(false) >= n
}

// available returns the appendable sector count. Normal appends keep one
// free superblock in reserve for GC migration; the collector itself may
// consume the reserve.
func (r *Region) available(useReserve bool) int64 {
	frees := int64(len(r.free))
	if !useReserve && frees > 0 {
		frees--
	}
	return r.remaining() + frees*r.sbCap
}

// AddrOf converts a linear staging index to its physical location. The
// layout is page-major: consecutive indices fill one flash page (so whole
// pages can be programmed with a single tPROG), and consecutive pages
// stripe across chips for parallelism.
func (r *Region) AddrOf(idx int64) (nand.Addr, error) {
	if idx < 0 || idx >= r.TotalSectors() {
		return nand.Addr{}, fmt.Errorf("slc: index %d out of range [0,%d)", idx, r.TotalSectors())
	}
	sb := int(idx / r.sbCap)
	pos := idx % r.sbCap
	page := int(pos) / r.spp // page-major index within the superblock
	return nand.Addr{
		Chip:   page % r.chips,
		Block:  r.blocks[sb],
		Page:   page / r.chips,
		Sector: int(pos) % r.spp,
	}, nil
}

// IndexOf converts a physical address inside the region back to its linear
// staging index — the inverse of AddrOf. It fails when the address does not
// belong to a region block.
func (r *Region) IndexOf(addr nand.Addr) (int64, error) {
	sb := -1
	for i, b := range r.blocks {
		if b == addr.Block {
			sb = i
			break
		}
	}
	if sb < 0 {
		return 0, fmt.Errorf("slc: block %d not owned by the region", addr.Block)
	}
	if addr.Chip < 0 || addr.Chip >= r.chips || addr.Sector < 0 || addr.Sector >= r.spp {
		return 0, fmt.Errorf("slc: address %+v outside region geometry", addr)
	}
	page := addr.Page*r.chips + addr.Chip
	pos := int64(page)*int64(r.spp) + int64(addr.Sector)
	if pos < 0 || pos >= r.sbCap {
		return 0, fmt.Errorf("slc: address %+v outside superblock capacity", addr)
	}
	return int64(sb)*r.sbCap + pos, nil
}

// BlockOf returns the per-chip block index backing superblock sb.
func (r *Region) BlockOf(sb int) (int, error) {
	if sb < 0 || sb >= len(r.blocks) {
		return 0, fmt.Errorf("slc: superblock %d out of range", sb)
	}
	return r.blocks[sb], nil
}

// IsFree reports whether superblock sb sits on the free list.
func (r *Region) IsFree(sb int) bool {
	if sb < 0 || sb >= len(r.sbs) {
		return false
	}
	return r.sbs[sb].inFree
}

// IsRetired reports whether superblock sb was retired after a failure.
func (r *Region) IsRetired(sb int) bool {
	if sb < 0 || sb >= len(r.sbs) {
		return false
	}
	return r.sbs[sb].retired
}

// RetiredSuperblocks returns how many superblocks have been retired.
func (r *Region) RetiredSuperblocks() int { return r.retiredCount }

// UsableSuperblocks returns the superblocks still in service. Once it drops
// below two the region can no longer guarantee GC progress, and the FTL
// degrades the device to read-only.
func (r *Region) UsableSuperblocks() int { return len(r.sbs) - r.retiredCount }

// retire freezes superblock sb out of service after a media failure. Live
// sectors stay readable; the superblock never returns to the free list.
// The retirement is journaled so recovery can tell a frozen mid-append
// extent apart from an open write point.
func (r *Region) retire(sb int) {
	r.sbs[sb].retired = true
	if r.cur == sb {
		r.cur = -1
		r.pos = 0
	}
	r.retiredCount++
	r.stats.Retired++
	r.arr.MetaAppend(nand.MetaRecord{Kind: nand.MetaSLCRetire, SB: sb})
}

// WritePoint returns the open superblock id (-1 when unbound) and the next
// linear sector position inside it.
func (r *Region) WritePoint() (sb int, pos int64) { return r.cur, r.pos }

// TotalValid returns the live staged sectors across all superblocks.
func (r *Region) TotalValid() int64 {
	var n int64
	for i := range r.sbs {
		n += int64(r.sbs[i].validCount)
	}
	return n
}

// bind attaches the write pointer to the next free superblock.
func (r *Region) bind() error {
	if len(r.free) == 0 {
		return ErrNoSpace
	}
	r.cur = r.free[0]
	// Shift rather than reslice: the FIFO keeps its backing array, so a
	// collection's append of the freed victim never reallocates it.
	r.free = r.free[:copy(r.free, r.free[1:])]
	r.sbs[r.cur].inFree = false
	r.tables(r.cur)
	r.pos = 0
	return nil
}

// Append stages the given sectors at the write pointer through 4 KiB
// partial programs, one per sector, striped across chips. It returns the
// linear index of each staged sector and the virtual completion time of the
// slowest program. The returned index slice is scratch storage owned by the
// region — it is valid only until the next Append or Collect call, so
// callers must consume it immediately (they all do: the indices go straight
// into mapping-table entries). Callers must check HasSpace (and garbage
// collect) first; Append fails rather than consume the GC reserve, which
// only the collector's migration may use.
func (r *Region) Append(at sim.Time, ws []Write) (idxs []int64, release, done sim.Time, err error) {
	return r.append(at, ws, nil)
}

// append is Append and the collector's migration. from is nil for Append;
// the collector passes the staged index each write moves from, which lets
// it use the GC reserve. A moved sector's write carries no payload: each
// program that lands shares its sectors' source slabs at once (SharePayload),
// so whatever prefix of a migration a power cut leaves durable holds its
// bytes.
func (r *Region) append(at sim.Time, ws []Write, from []int64) ([]int64, sim.Time, sim.Time, error) {
	if len(ws) == 0 {
		return nil, at, at, nil
	}
	need := int64(len(ws))
	if r.available(from != nil) < need {
		return nil, at, at, ErrNoSpace
	}
	for _, w := range ws {
		if w.Payload != nil && int64(len(w.Payload)) != units.Sector {
			return nil, at, at, fmt.Errorf("slc: payload must be %d bytes, got %d", units.Sector, len(w.Payload))
		}
	}
	idxs := r.idxScratch[:0]
	release := at
	done := at
	spp := int64(r.spp)
	for i := 0; i < len(ws); {
		if r.cur < 0 || r.pos == r.sbCap {
			if err := r.bind(); err != nil {
				// Mid-append exhaustion (a retirement below consumed the
				// pre-checked space): un-stage what this call appended — the
				// caller never learns those indices — and report no space.
				r.rollback(idxs)
				return nil, at, at, err
			}
		}
		addr, err := r.AddrOf(int64(r.cur)*r.sbCap + r.pos)
		if err != nil {
			return nil, at, at, err
		}
		remaining := int64(len(ws) - i)
		var rel, end sim.Time
		var took int64
		if addr.Sector == 0 && remaining >= spp {
			// A whole page of data starting at a page boundary: one
			// full-page program covers all its sectors. The per-sector views
			// are passed through scratch; the array copies the non-nil ones
			// into its pooled storage before returning.
			for k := int64(0); k < spp; k++ {
				r.pageScratch[k] = ws[i+int(k)].Payload
			}
			rel, end, err = r.arr.ProgramSLCPage(at, addr.Chip, addr.Block, addr.Page, r.pageScratch)
			took = spp
		} else {
			// Sub-page tail or unaligned start: 4 KiB partial program.
			rel, end, err = r.arr.ProgramSLCSector(at, addr.Chip, addr.Block, addr.Page, addr.Sector, ws[i].Payload)
			took = 1
		}
		if err != nil {
			if errors.Is(err, nand.ErrProgramFail) {
				// The open superblock grew a bad page. Retire it — sectors
				// already programmed stay readable in the frozen block —
				// and retry the same data on a fresh superblock; running
				// out of superblocks surfaces through bind() above.
				r.retire(r.cur)
				continue
			}
			r.rollback(idxs)
			return nil, at, at, fmt.Errorf("slc: program at %+v: %w", addr, err)
		}
		if rel > release {
			release = rel
		}
		if end > done {
			done = end
		}
		sb := &r.sbs[r.cur]
		// OOB stamps for recovery: each staged copy's logical address and its
		// position in global program order. The program's sectors are
		// consecutive in one page, so they follow its address.
		ppa := r.arr.PPAOf(addr)
		for k := int64(0); k < took; k++ {
			idx := int64(r.cur)*r.sbCap + r.pos
			sb.valid[r.pos] = true
			sb.lpa[r.pos] = ws[i+int(k)].LPA
			sb.validCount++
			r.pos++
			idxs = append(idxs, idx)
			r.arr.StampOOB(ppa+nand.PPA(k), ws[i+int(k)].LPA, 1)
			if from != nil {
				r.arr.SharePayload(ppa+nand.PPA(k), r.ppaOf(from[i+int(k)]))
			}
		}
		i += int(took)
	}
	r.stats.Staged += int64(len(ws))
	r.idxScratch = idxs
	return idxs, release, done, nil
}

// rollback un-stages the sectors a failed append already placed: their
// indices never reached the caller's mapping, so leaving them valid would
// leak validity accounting.
func (r *Region) rollback(idxs []int64) {
	for _, idx := range idxs {
		sb, pos, err := r.locate(idx)
		if err != nil || !r.sbs[sb].live(pos) {
			continue
		}
		r.sbs[sb].valid[pos] = false
		r.sbs[sb].validCount--
	}
	r.idxScratch = idxs[:0]
}

// Invalidate marks a staged sector dead (combined into the normal area, or
// its zone was reset). Invalidating an already-dead sector is an error —
// it would corrupt the valid count.
func (r *Region) Invalidate(idx int64) error {
	sb, pos, err := r.locate(idx)
	if err != nil {
		return err
	}
	if !r.sbs[sb].live(pos) {
		return fmt.Errorf("slc: double invalidate of index %d", idx)
	}
	r.sbs[sb].valid[pos] = false
	r.sbs[sb].validCount--
	r.stats.Invalidated++
	return nil
}

// IsValid reports whether the staged sector at idx is live.
func (r *Region) IsValid(idx int64) bool {
	sb, pos, err := r.locate(idx)
	if err != nil {
		return false
	}
	return r.sbs[sb].live(pos)
}

// LPAAt returns the reverse-mapped logical address of a live staged sector.
func (r *Region) LPAAt(idx int64) (int64, error) {
	sb, pos, err := r.locate(idx)
	if err != nil {
		return 0, err
	}
	if !r.sbs[sb].live(pos) {
		return 0, fmt.Errorf("slc: index %d is not valid", idx)
	}
	return r.sbs[sb].lpa[pos], nil
}

func (r *Region) locate(idx int64) (int, int64, error) {
	if idx < 0 || idx >= r.TotalSectors() {
		return 0, 0, fmt.Errorf("slc: index %d out of range", idx)
	}
	return int(idx / r.sbCap), idx % r.sbCap, nil
}

// ValidCount returns the live sectors in a superblock.
func (r *Region) ValidCount(sb int) int {
	if sb < 0 || sb >= len(r.sbs) {
		return 0
	}
	return r.sbs[sb].validCount
}

// Payload returns the stored bytes of a staged sector (nil when the write
// carried no payload).
func (r *Region) Payload(idx int64) []byte {
	addr, err := r.AddrOf(idx)
	if err != nil {
		return nil
	}
	return r.arr.Payload(r.arr.PPAOf(addr))
}

// ppaOf is AddrOf for an index the region itself took from its tables,
// resolved to the array's linear sector.
func (r *Region) ppaOf(idx int64) nand.PPA {
	addr, _ := r.AddrOf(idx)
	return r.arr.PPAOf(addr)
}

// ReadSectors charges the flash reads needed to fetch the given staged
// sectors: one SLC page sense per distinct page plus the transfer of the
// requested sectors. It returns the completion time of the slowest read.
//
// All its callers are internal movement paths (GC migration, combines), so
// it uses the reliable read variant: fault-model read retries still cost
// their tR rounds, but the data always comes back — device-internal copies
// never lose acknowledged writes.
func (r *Region) ReadSectors(at sim.Time, idxs []int64) (sim.Time, error) {
	// Batch per distinct page in first-touch order (deterministic replay).
	r.pages.Reset()
	for _, idx := range idxs {
		a, err := r.AddrOf(idx)
		if err != nil {
			return at, err
		}
		r.pages.Add(a)
	}
	done := at
	for _, run := range r.pages.Runs() {
		end, err := r.arr.ReadPageReliable(at, run.Chip, run.Block, run.Page, run.Bytes)
		if err != nil {
			return at, err
		}
		if end > done {
			done = end
		}
	}
	return done, nil
}

// Victim returns the id of the best GC victim: the non-free, non-current,
// non-retired superblock with the fewest valid sectors that has been
// written. Returns -1 when no victim exists.
func (r *Region) Victim() int {
	best, bestValid := -1, int(r.sbCap)+1
	for i := range r.sbs {
		if r.sbs[i].inFree || r.sbs[i].retired || i == r.cur {
			continue
		}
		if r.sbs[i].validCount < bestValid {
			best, bestValid = i, r.sbs[i].validCount
		}
	}
	return best
}

// Relocator receives mapping updates during garbage collection: the staged
// sector for lpa moved from linear index old to linear index new.
type Relocator interface {
	Relocate(lpa, oldIdx, newIdx int64) error
}

// Collect garbage-collects one victim superblock: reads its live sectors,
// re-appends them (using the GC reserve), informs the relocator, erases the
// victim's blocks on every chip, and returns the superblock to the free
// list (paper §III-D, "full GC process"). It returns the completion time.
func (r *Region) Collect(at sim.Time, victim int, rel Relocator) (sim.Time, error) {
	if victim < 0 || victim >= len(r.sbs) {
		return at, fmt.Errorf("slc: victim %d out of range", victim)
	}
	if victim == r.cur {
		return at, fmt.Errorf("slc: cannot collect the open superblock %d", victim)
	}
	if r.sbs[victim].inFree {
		return at, fmt.Errorf("slc: victim %d is already free", victim)
	}
	if r.sbs[victim].retired {
		return at, fmt.Errorf("slc: victim %d is retired", victim)
	}
	sb := &r.sbs[victim]
	done := at

	// Move valid sectors, if any.
	moves := r.moveScratch[:0]
	for pos, v := range sb.valid {
		if v {
			moves = append(moves, int64(victim)*r.sbCap+int64(pos))
		}
	}
	r.moveScratch = moves
	if len(moves) > 0 {
		readDone, err := r.ReadSectors(at, moves)
		if err != nil {
			return at, err
		}
		// The migration writes carry no payload: the re-append shares each
		// victim sector's slab with its new copy, so the erase below drops
		// the victim's references and no byte is copied.
		ws := r.wsScratch[:0]
		for _, idx := range moves {
			ws = append(ws, Write{LPA: sb.lpa[idx%r.sbCap]})
		}
		r.wsScratch = ws
		newIdxs, _, progDone, err := r.append(readDone, ws, moves)
		if err != nil {
			return at, fmt.Errorf("slc: GC migration: %w", err)
		}
		for i, idx := range moves {
			pos := idx % r.sbCap
			if rel != nil {
				if err := rel.Relocate(sb.lpa[pos], idx, newIdxs[i]); err != nil {
					return at, fmt.Errorf("slc: relocate: %w", err)
				}
			}
			sb.valid[pos] = false
			sb.validCount--
		}
		r.stats.Migrated += int64(len(moves))
		done = progDone
		r.arr.Recorder().Record(obs.Event{
			Stage: obs.StageGCMigrate, Begin: at, End: progDone,
			Zone: -1, Actor: int32(victim), LBA: -1, N: int64(len(moves)),
		})
	}

	// Erase the victim's block on every chip.
	eraseStart := done
	for chip := 0; chip < r.chips; chip++ {
		end, err := r.arr.Erase(eraseStart, chip, r.blocks[victim])
		if err != nil {
			if errors.Is(err, nand.ErrEraseFail) {
				// The block wore out mid-erase: retire the whole superblock
				// instead of freeing it. Its live data was already migrated
				// above, so nothing is lost — the region just shrinks.
				if end > done {
					done = end
				}
				r.retire(victim)
				r.stats.Collections++
				r.arr.Recorder().Record(obs.Event{
					Stage: obs.StageGCCollect, Begin: at, End: done,
					Zone: -1, Actor: int32(victim), LBA: -1, N: int64(len(moves)),
				})
				return done, nil
			}
			return at, err
		}
		if end > done {
			done = end
		}
	}
	for pos := range sb.valid {
		sb.valid[pos] = false
	}
	sb.validCount = 0
	sb.inFree = true
	r.free = append(r.free, victim)
	r.stats.Collections++
	r.stats.Erased++
	rec := r.arr.Recorder() // nil (and Record a no-op) when observation is off
	rec.Record(obs.Event{
		Stage: obs.StageGCErase, Begin: eraseStart, End: done,
		Zone: -1, Actor: int32(victim), LBA: -1, N: int64(r.chips),
	})
	rec.Record(obs.Event{
		Stage: obs.StageGCCollect, Begin: at, End: done,
		Zone: -1, Actor: int32(victim), LBA: -1, N: int64(len(moves)),
	})
	return done, nil
}

// EnsureSpace garbage-collects until n sectors fit (per HasSpace's reserve
// rule) or no further progress is possible.
func (r *Region) EnsureSpace(at sim.Time, n int64, rel Relocator) (sim.Time, error) {
	for !r.HasSpace(n) {
		v := r.Victim()
		if v < 0 {
			return at, ErrNoSpace
		}
		if r.sbs[v].validCount == int(r.sbCap) {
			// Even the best victim is fully valid: collecting it migrates
			// exactly as much as it frees, so no progress is possible.
			return at, ErrNoSpace
		}
		done, err := r.Collect(at, v, rel)
		if err != nil {
			return at, err
		}
		at = done
	}
	return at, nil
}

// CheckInvariants validates internal accounting (used by tests).
func (r *Region) CheckInvariants() error {
	for i := range r.sbs {
		n := 0
		for _, v := range r.sbs[i].valid {
			if v {
				n++
			}
		}
		if n != r.sbs[i].validCount {
			return fmt.Errorf("slc: sb %d valid count %d != recount %d", i, r.sbs[i].validCount, n)
		}
		if r.sbs[i].inFree && n != 0 {
			return fmt.Errorf("slc: free sb %d has %d valid sectors", i, n)
		}
		if r.sbs[i].inFree && r.sbs[i].retired {
			return fmt.Errorf("slc: retired sb %d is on the free list", i)
		}
	}
	if r.cur >= 0 && r.sbs[r.cur].inFree {
		return fmt.Errorf("slc: current sb %d is on the free list", r.cur)
	}
	if r.cur >= 0 && r.sbs[r.cur].retired {
		return fmt.Errorf("slc: current sb %d is retired", r.cur)
	}
	return nil
}
