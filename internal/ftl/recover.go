package ftl

import (
	"errors"
	"fmt"

	"github.com/conzone/conzone/internal/fault"
	"github.com/conzone/conzone/internal/mapping"
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

// Recover mounts an FTL over the surviving media of arr after a power cut
// (or over an image loaded from disk). The array is powered back on, the
// FTL substrates are rebuilt fresh, and the media scan reconstructs the
// mapping table, zone write pointers, staging allocator, superblock
// bindings and bad-block table. injSnap, when non-nil, restores the fault
// injector's RNG stream and script cursors so the fault sequence continues
// exactly where the interrupted run left it. Returns the recovered FTL and
// the completion time of any cleanup erases the mount issued.
func Recover(arr *nand.Array, p Params, injSnap *fault.Snapshot) (*FTL, sim.Time, error) {
	arr.PowerOn()
	f, err := NewWithArray(arr, p)
	if err != nil {
		return nil, 0, err
	}
	if injSnap != nil {
		if f.inj == nil {
			return nil, 0, fmt.Errorf("ftl: injector snapshot given but faults are disabled")
		}
		f.inj.Restore(*injSnap)
	}
	at := arr.Engine().Now()
	done, err := f.recover(at)
	if err != nil {
		return nil, done, err
	}
	return f, done, nil
}

// recCand is one durable copy of a zone offset discovered by the scan.
type recCand struct {
	seq  int64
	head bool  // lives in the zone's bound superblock (zone-linear PSN)
	gidx int64 // staging linear index when !head
}

// sbScan is the head scan's per-superblock summary.
type sbScan struct {
	extent int64 // total programmed sectors across chips
	zone   int   // zone claimed via OOB, -1 for empty or garbage
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

	// --- 3. Head scan: per-superblock extents and OOB zone claims. ---
	scans := make([]sbScan, f.geo.NormalBlocks())
	claims := make(map[int][]int) // zone -> claiming superblocks
	for sb := range scans {
		scans[sb].zone = -1
		if retiredSet[sb] {
			continue
		}
		block := f.geo.FirstNormalBlock() + sb
		firstChip := -1
		for c := 0; c < chips; c++ {
			e := int64(f.arr.NextProgramSector(c, block))
			scans[sb].extent += e
			if e > 0 && firstChip < 0 {
				firstChip = c
			}
		}
		if scans[sb].extent == 0 {
			continue
		}
		// The first programmed unit on chip c is always PU c (per-chip
		// programs append in offset order), so its OOB stamp names the
		// owning zone.
		lpa, _ := f.arr.OOB(f.ppaOf(nand.Addr{Chip: firstChip, Block: block}))
		if lpa >= 0 {
			z := int(lpa / f.zoneCap)
			wantOff := int64(firstChip) * f.puSectors
			if z >= 0 && z < f.numZones && !f.zstate[z].conv && lpa%f.zoneCap == wantOff {
				scans[sb].zone = z
				claims[z] = append(claims[z], sb)
			}
		}
	}

	// --- 4. Claim resolution: a torn relocation leaves the intact source
	// and a partially-copied spare claiming the same zone. The larger
	// extent is the source; the loser is erased as garbage below. (A
	// completed relocation journals the source's retirement before any
	// further media op can tear, so a tie cannot arise; break one by id
	// for robustness.) ---
	winnerSB := make([]int, f.numZones)
	for z := range winnerSB {
		winnerSB[z] = -1
	}
	for zone, sbs := range claims {
		best := sbs[0]
		for _, sb := range sbs[1:] {
			if scans[sb].extent > scans[best].extent ||
				(scans[sb].extent == scans[best].extent && sb < best) {
				best = sb
			}
		}
		winnerSB[zone] = best
		for _, sb := range sbs {
			if sb != best {
				scans[sb].zone = -1
			}
		}
	}

	// --- 5. Candidate collection: every durable copy of every logical
	// sector, from the bound superblocks and the staging region. Copies
	// stamped before their zone's last acknowledged reset are dead. ---
	cands := make([]map[int64]recCand, f.numZones)
	add := func(zone int, off int64, c recCand) {
		if cands[zone] == nil {
			cands[zone] = make(map[int64]recCand)
		}
		if prev, ok := cands[zone][off]; !ok || c.seq > prev.seq {
			cands[zone][off] = c
		}
	}
	for zone := range winnerSB {
		sb := winnerSB[zone]
		if sb < 0 {
			continue
		}
		block := f.geo.FirstNormalBlock() + sb
		valid := true
	headScan:
		for c := 0; c < chips; c++ {
			extent := int64(f.arr.NextProgramSector(c, block))
			for s := int64(0); s < extent; s++ {
				// Sector s of chip c belongs to PU c + (s/puSectors)*chips.
				k := int64(c) + (s/f.puSectors)*int64(chips)
				off := k*f.puSectors + s%f.puSectors
				lpa, seq := f.arr.OOB(f.ppaOf(nand.Addr{Chip: c, Block: block}) + nand.PPA(s))
				if lpa != int64(zone)*f.zoneCap+off {
					valid = false // not conzone-written media: treat as garbage
					break headScan
				}
				if seq > resetSeq[zone] {
					add(zone, off, recCand{seq: seq, head: true})
				}
			}
		}
		if !valid {
			scans[sb].zone = -1
			winnerSB[zone] = -1
			cands[zone] = nil // drop the partial head entries
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
		add(zone, lpa%f.zoneCap, recCand{seq: seq, gidx: idx})
	}

	// --- 6. Per-zone application: write pointers, mappings, bindings. ---
	bound := make([]bool, f.geo.NormalBlocks())
	for zone := 0; zone < f.numZones; zone++ {
		zs := &f.zstate[zone]
		m := cands[zone]
		z, err := f.zones.Zone(zone)
		if err != nil {
			return done, err
		}
		if zs.conv {
			// Conventional zones are page-mapped in SLC: every surviving
			// winner is live, no write pointer.
			for off, c := range m {
				if c.head {
					return done, fmt.Errorf("ftl: recover: conventional zone %d offset %d claims a head copy", zone, off)
				}
				if err := f.table.Set(z.Start+off, f.aggLimit+mapping.PSN(c.gidx)); err != nil {
					return done, err
				}
				if err := f.staging.MarkValid(c.gidx, z.Start+off); err != nil {
					return done, err
				}
				zs.staged[c.gidx] = struct{}{}
			}
			continue
		}

		// Durable coverage of a sequential zone is a contiguous prefix
		// (flushes land in write-pointer order and a torn program truncates
		// the last one), so the recovered write pointer is the longest run
		// of winners from offset zero.
		var wp int64
		for wp < f.zoneCap {
			if _, ok := m[wp]; !ok {
				break
			}
			wp++
		}
		var headMapped int64
		for off := int64(0); off < wp; off++ {
			if m[off].head {
				headMapped++
			}
		}
		sb := winnerSB[zone]
		var extent int64
		if sb >= 0 {
			extent = scans[sb].extent
		}
		if headMapped != extent {
			// Survivors do not line up with the superblock's programmed
			// extent. The only reachable cause is a torn reset (the bound
			// superblock partially erased, chips in erase order): the reset
			// was never acknowledged, so recovering the zone as empty is a
			// legal outcome. Drop the zone and erase the residue below.
			if sb >= 0 {
				scans[sb].zone = -1
				winnerSB[zone] = -1
			}
			continue
		}
		if sb >= 0 {
			zs.sb = sb
			bound[sb] = true
		}
		if wp > 0 {
			if err := f.zones.Restore(zone, z.Start+wp); err != nil {
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
		for off := int64(0); off < wp; off++ {
			c := m[off]
			lpa := z.Start + off
			psn := mapping.PSN(lpa) // zone-linear: zone*zoneCap + off
			if !c.head {
				psn = f.aggLimit + mapping.PSN(c.gidx)
				if err := f.staging.MarkValid(c.gidx, lpa); err != nil {
					return done, err
				}
				zs.staged[c.gidx] = struct{}{}
			}
			if err := f.table.Set(lpa, psn); err != nil {
				return done, err
			}
		}
		// The current partially-programmed unit's staged sectors await
		// combining (Fig. 3 ③); rebuild the pend list the write path
		// expects. (The alignment tail stays on staged PSNs: tailSet is
		// left false and future tail appends simply stage page-mapped.)
		if !f.params.DisableCombine && wp < f.sbSectors && wp%f.puSectors != 0 {
			for off := wp - wp%f.puSectors; off < wp; off++ {
				c := m[off]
				if c.head {
					return done, fmt.Errorf("ftl: recover: zone %d offset %d in a partial unit has a head copy", zone, off)
				}
				zs.pend = append(zs.pend, pendSector{off: off, gidx: c.gidx})
			}
		}
	}

	// --- 7. Garbage sweep and free-pool rebuild: unbound, unretired
	// superblocks return to the pool, erased first if a torn reset, torn
	// relocation or dropped zone left programmed sectors behind. ---
	f.freeSBs = f.freeSBs[:0]
	for sb := range scans {
		if retiredSet[sb] || bound[sb] {
			continue
		}
		if scans[sb].extent > 0 {
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
