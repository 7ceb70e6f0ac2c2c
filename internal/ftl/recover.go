package ftl

import (
	"errors"
	"fmt"

	"github.com/conzone/conzone/internal/fault"
	"github.com/conzone/conzone/internal/nand"
	"github.com/conzone/conzone/internal/sim"
)

// Crash-consistent recovery. A power cut loses every volatile structure —
// write buffers, the mapping table and L2P cache, zone write pointers, the
// staging allocator, the bad-block table. What survives is the media: the
// per-chip append points, the programmed payloads with their OOB stamps
// (logical address + global program-order sequence), and the journaled
// metadata records (zone resets and retirements). Recover rebuilds the
// entire FTL state from those, choosing for every logical sector the copy
// with the highest sequence number that postdates its zone's last
// acknowledged reset.
//
// Durability contract: NAND operations issue synchronously in program
// order and a power cut tears an operation atomically (all-or-nothing per
// program unit / SLC page), so the surviving media is always a program-order
// prefix of the uninterrupted run. Every sector whose flush completed
// before the cut — in particular everything a successful Flush/Close/Finish
// acknowledged — therefore reads back after Recover.

// checkPower gates host-visible entry points once the armed power-cut
// instant has passed: a dead device fails every command, including ones
// that would touch no media (buffer-served reads, empty flushes).
func (f *FTL) checkPower(at sim.Time) error {
	if f.arr.PowerLostAt(at) {
		return nand.ErrPowerLoss
	}
	return nil
}

// ArmPowerCut arms a power cut at the given virtual-time instant.
func (f *FTL) ArmPowerCut(at sim.Time) { f.arr.ArmPowerCut(at) }

// PowerLost reports whether the device has died to an armed power cut.
func (f *FTL) PowerLost() bool { return f.arr.PowerLost() }

// Recover mounts an FTL over the media of arr — an image loaded from disk,
// or any array no FTL is attached to. The array is powered back on, the FTL
// substrates are rebuilt fresh, and the media scan reconstructs the mapping
// table with its map bits, zone write pointers, staging allocator,
// superblock bindings and bad-block table. Returns the mounted FTL and the
// completion time of any cleanup erases the mount issued.
func Recover(arr *nand.Array, p Params) (*FTL, sim.Time, error) {
	return mount(arr, p, nil)
}

// Remount mounts a fresh FTL over f's media after a power cut, carrying what
// outlives a mount and is not on the media: the parameters and the fault
// injector's RNG stream and script cursors, so the fault sequence continues
// exactly where the interrupted run left it. (The lifecycle recorder needs
// no carrying: it belongs to the array.) f must not be used afterwards.
func (f *FTL) Remount() (*FTL, sim.Time, error) {
	return mount(f.arr, f.params, f.inj)
}

func mount(arr *nand.Array, p Params, inj *fault.Injector) (*FTL, sim.Time, error) {
	arr.PowerOn()
	f, err := NewWithArray(arr, p)
	if err != nil {
		return nil, 0, err
	}
	if inj != nil {
		f.inj.Restore(inj.Snapshot())
	}
	done, err := f.recover(arr.Engine().Now())
	if err != nil {
		return nil, done, err
	}
	return f, done, nil
}

// recCand is the newest durable copy of one zone offset the scan has seen;
// seq 0 means none.
type recCand struct {
	seq  int64
	head bool  // lives in the zone's bound superblock (zone-linear PSN)
	gidx int64 // staging linear index when !head
}

// offer keeps c as the zone offset's candidate if it is newer than what is
// there. cands is indexed by zone, then zone offset; a zone's row is nil
// until its first candidate.
func (f *FTL) offer(cands [][]recCand, zone int, off int64, c recCand) {
	if cands[zone] == nil {
		cands[zone] = make([]recCand, f.zoneCap)
	}
	if c.seq > cands[zone][off].seq {
		cands[zone][off] = c
	}
}

func (f *FTL) recover(at sim.Time) (sim.Time, error) {
	done := at
	chips := f.geo.Chips()

	// --- 1. Journal replay: acknowledged resets, finishes, retirements. ---
	resetSeq := make([]int64, f.numZones)
	finishSeq := make([]int64, f.numZones)
	var slcRetired []int
	retiredSet := make(map[int]bool)
	for _, rec := range f.arr.MetaJournal() {
		switch rec.Kind {
		case nand.MetaZoneReset:
			if rec.Zone >= 0 && rec.Zone < f.numZones && rec.Seq > resetSeq[rec.Zone] {
				resetSeq[rec.Zone] = rec.Seq
			}
		case nand.MetaZoneFinish:
			if rec.Zone >= 0 && rec.Zone < f.numZones && rec.Seq > finishSeq[rec.Zone] {
				finishSeq[rec.Zone] = rec.Seq
			}
		case nand.MetaRetireSB:
			// A retirement this geometry cannot have made is not skipped:
			// the media is not this device's, or its journal is damaged.
			if rec.SB < 0 || rec.SB >= f.geo.NormalBlocks() || rec.Chip < 0 || rec.Chip >= chips ||
				rec.Block != f.geo.FirstNormalBlock()+rec.SB {
				return done, fmt.Errorf("ftl: recover: journal retires superblock %d for chip %d block %d, outside this geometry", rec.SB, rec.Chip, rec.Block)
			}
			if !retiredSet[rec.SB] {
				retiredSet[rec.SB] = true
				// Rebuild the table directly: retireSB would re-journal.
				f.retiredSBs = append(f.retiredSBs, rec.SB)
				f.badBlocks = append(f.badBlocks, BadBlock{Chip: rec.Chip, Block: rec.Block, Op: fault.Op(rec.Op)})
				f.stats.RetiredSuperblocks++
			}
		case nand.MetaSLCRetire:
			slcRetired = append(slcRetired, rec.SB)
		}
	}

	// --- 2. Staging allocator rebuild (finishes torn GC erases). ---
	d, err := f.staging.Recover(at, slcRetired)
	if d > done {
		done = d
	}
	if err != nil {
		return done, err
	}

	// --- 3. Superblock extents and OOB zone claims. ---
	extent := make([]int64, f.geo.NormalBlocks()) // programmed sectors across chips
	claims := make(map[int][]int)                 // zone -> claiming superblocks
	for sb := range extent {
		if retiredSet[sb] {
			continue
		}
		block := f.geo.FirstNormalBlock() + sb
		firstChip := -1
		for c := 0; c < chips; c++ {
			e := int64(f.arr.NextProgramSector(c, block))
			extent[sb] += e
			if e > 0 && firstChip < 0 {
				firstChip = c
			}
		}
		if extent[sb] == 0 {
			continue
		}
		// The OOB stamp of a chip's first programmed sector names the zone
		// and offset it was written for; the claim stands when the striping
		// rule places that offset exactly there.
		first := nand.Addr{Chip: firstChip, Block: block}
		lpa, _ := f.arr.OOB(f.ppaOf(first))
		if z := int(lpa / f.zoneCap); lpa >= 0 && z < f.numZones && !f.zstate[z].conv &&
			f.arr.StripeAddr(sb, lpa%f.zoneCap) == first {
			claims[z] = append(claims[z], sb)
		}
	}

	// --- 4. Claim resolution: a torn relocation leaves the intact source
	// and a partially-copied spare claiming the same zone. The larger
	// extent is the source and is bound; the loser is erased as garbage
	// below. (A completed relocation journals the source's retirement
	// before any further media op can tear, so a tie cannot arise; break
	// one by id for robustness.) ---
	for zone, sbs := range claims {
		best := sbs[0]
		for _, sb := range sbs[1:] {
			if extent[sb] > extent[best] || (extent[sb] == extent[best] && sb < best) {
				best = sb
			}
		}
		f.zstate[zone].sb = best
	}

	// --- 5. Candidate collection: every durable copy of every logical
	// sector, from the bound superblocks and the staging region. Copies
	// stamped before their zone's last acknowledged reset are dead. The
	// head scan asks the read path's own translation (headLoc) where each
	// zone offset lives, until every programmed sector is accounted for. ---
	cands := make([][]recCand, f.numZones)
	for zone := range f.zstate {
		sb := f.zstate[zone].sb
		if sb < 0 {
			continue
		}
		var seen int64
		for off := int64(0); off < f.sbSectors && seen < extent[sb]; off++ {
			addr, err := f.headLoc(zone, off)
			if err != nil {
				return done, err
			}
			ppa := f.ppaOf(addr)
			if !f.arr.IsWritten(ppa) {
				continue
			}
			seen++
			lpa, seq := f.arr.OOB(ppa)
			if lpa != int64(zone)*f.zoneCap+off {
				// Not conzone-written media: the superblock is garbage and
				// the partial head entries go with it.
				f.zstate[zone].sb, cands[zone] = -1, nil
				break
			}
			if seq > resetSeq[zone] {
				f.offer(cands, zone, off, recCand{seq: seq, head: true})
			}
		}
	}
	total := f.staging.TotalSectors()
	for idx := int64(0); idx < total; idx++ {
		addr, err := f.staging.AddrOf(idx)
		if err != nil {
			return done, err
		}
		ppa := f.ppaOf(addr)
		if !f.arr.IsWritten(ppa) {
			continue
		}
		lpa, seq := f.arr.OOB(ppa)
		if lpa < 0 {
			continue // pre-OOB or foreign media: unrecoverable, leave dead
		}
		zone := int(lpa / f.zoneCap)
		if zone < 0 || zone >= f.numZones {
			continue
		}
		if seq <= resetSeq[zone] {
			continue // predates the zone's last acknowledged reset
		}
		f.offer(cands, zone, lpa%f.zoneCap, recCand{seq: seq, gidx: idx})
	}

	// --- 6. Per-zone application: write pointers, bindings, and the
	// mappings — replayed through the write path's own landHead and
	// landStaged, so map bits, pinned entries, the pending partial unit and
	// the tail come back as the live device had them. ---
	for zone := range f.zstate {
		zs := &f.zstate[zone]
		m := cands[zone]
		z, err := f.zones.Zone(zone)
		if err != nil {
			return done, err
		}
		// Durable coverage of a sequential zone is a contiguous prefix
		// (flushes land in write-pointer order and a torn program truncates
		// the last one), so the recovered write pointer is the longest run
		// of winners from offset zero. Conventional zones are page-mapped
		// in SLC: every surviving winner is live, no write pointer.
		limit := int64(len(m))
		if !zs.conv {
			var headMapped int64
			for limit = 0; limit < int64(len(m)) && m[limit].seq > 0; limit++ {
				if m[limit].head {
					headMapped++
				}
			}
			if zs.sb >= 0 && headMapped != extent[zs.sb] {
				// Survivors do not line up with the superblock's programmed
				// extent. The only reachable cause is a torn reset (the bound
				// superblock partially erased, chips in erase order): the reset
				// was never acknowledged, so recovering the zone as empty is a
				// legal outcome. Drop the zone and erase the residue below.
				zs.sb = -1
				continue
			}
			if limit > 0 {
				if err := f.zones.Restore(zone, z.Start+limit); err != nil {
					return done, err
				}
			}
			// An acknowledged finish padded the zone to capacity, so Restore
			// normally derives Full on its own. The journal record is the
			// belt-and-braces: if a finish postdating the last reset is on
			// record, the host was acked and the zone must come back Full even
			// if the media scan stopped short of capacity.
			if finishSeq[zone] > resetSeq[zone] {
				if err := f.zones.RestoreFull(zone); err != nil {
					return done, err
				}
			}
		}
		if err := f.landRecovered(zone, m[:limit]); err != nil {
			return done, err
		}
	}

	// --- 7. Garbage sweep and free-pool rebuild: unbound, unretired
	// superblocks return to the pool, erased first if a torn reset, torn
	// relocation or dropped zone left programmed sectors behind. ---
	bound := make([]bool, len(extent))
	for zone := range f.zstate {
		if sb := f.zstate[zone].sb; sb >= 0 {
			bound[sb] = true
		}
	}
	f.freeSBs = f.freeSBs[:0]
	for sb := range extent {
		if retiredSet[sb] || bound[sb] {
			continue
		}
		if extent[sb] > 0 {
			block := f.geo.FirstNormalBlock() + sb
			bad := false
			for chip := 0; chip < chips; chip++ {
				if f.arr.NextProgramSector(chip, block) == 0 {
					continue
				}
				d, err := f.arr.Erase(at, chip, block)
				if d > done {
					done = d
				}
				if err != nil {
					if errors.Is(err, nand.ErrEraseFail) {
						f.retireSB(sb, BadBlock{Chip: chip, Block: block, Op: fault.OpErase})
						retiredSet[sb] = true
						bad = true
						break
					}
					return done, err
				}
			}
			if bad {
				continue
			}
		}
		f.freeSBs = append(f.freeSBs, sb)
	}

	f.arr.Engine().Observe(done)
	return done, nil
}

// landRecovered maps one zone's winners, by zone offset, in the order the
// write path landed them: each maximal run of head copies through landHead,
// each run of staged copies — re-marked live in the staging region, cut at
// the head/tail boundary so the tail is offered to extendTail as the one run
// it must be — through landStaged.
func (f *FTL) landRecovered(zone int, m []recCand) error {
	zs := &f.zstate[zone]
	var gidxs []int64
	for off := int64(0); off < int64(len(m)); {
		if m[off].seq == 0 {
			off++ // a conventional zone's never-written sector
			continue
		}
		end := off + 1
		if m[off].head {
			if len(zs.pend) > 0 {
				return fmt.Errorf("ftl: recover: zone %d offset %d has a head copy beyond a partial unit staged at offset %d", zone, off, zs.pend[0].off)
			}
			for end < int64(len(m)) && m[end].seq > 0 && m[end].head {
				end++
			}
			if err := f.landHead(zone, off, end-off); err != nil {
				return err
			}
		} else {
			for end < int64(len(m)) && end != f.sbSectors && m[end].seq > 0 && !m[end].head {
				end++
			}
			gidxs = gidxs[:0]
			for o := off; o < end; o++ {
				if err := f.staging.MarkValid(m[o].gidx, int64(zone)*f.zoneCap+o); err != nil {
					return err
				}
				gidxs = append(gidxs, m[o].gidx)
			}
			if off >= f.sbSectors && !zs.conv {
				f.extendTail(zone, off, gidxs)
			}
			if err := f.landStaged(zone, off, gidxs); err != nil {
				return err
			}
		}
		off = end
	}
	return nil
}
