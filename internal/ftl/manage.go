package ftl

import (
	"errors"
	"fmt"

	"github.com/conzone/conzone/internal/fault"
	"github.com/conzone/conzone/internal/mapping"
	"github.com/conzone/conzone/internal/nand"
	"github.com/conzone/conzone/internal/obs"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/zns"
)

// ResetZone implements the zone reset path (paper Fig. 2 E.2 and §III-D):
// the zone's reserved normal blocks are erased directly, any data the zone
// still has in SLC is invalidated, and the mapping table and L2P cache drop
// every entry of the zone. No valid-page migration happens — the host owns
// validity in the normal region.
func (f *FTL) ResetZone(at sim.Time, zone int) (sim.Time, error) {
	if err := f.checkPower(at); err != nil {
		return at, err
	}
	if err := f.checkWritable(); err != nil {
		return at, err
	}
	if err := f.zones.Reset(zone); err != nil {
		return at, err
	}
	zs := &f.zstate[zone]
	done := at

	// Discard any buffered-but-unflushed data of this zone. The discarded
	// sectors count toward the WAF identity: the host wrote them but they
	// never reach media.
	if fl := f.bufs.Take(zone); fl != nil {
		f.stats.ResetDiscards += fl.Sectors()
	}

	// Invalidate the zone's staged SLC sectors: a partial unit awaiting a
	// combine, the alignment tail, whatever else its entries point into SLC.
	if err := f.stagedOf(zone, func(_, g int64) error {
		if !f.staging.IsValid(g) {
			return nil
		}
		return f.staging.Invalidate(g)
	}); err != nil {
		return at, err
	}
	zs.tailSet = false
	zs.tailContig = false

	// Erase the bound superblock's block on every chip and return it to
	// the free pool. An erase failure retires the superblock on the spot —
	// it never re-enters the pool — and the zone simply unbinds; its next
	// write draws a fresh superblock (a spare, transitively). The reset
	// itself still succeeds: the host's view of the zone is empty either way.
	if zs.sb >= 0 {
		block := f.geo.FirstNormalBlock() + zs.sb
		for chip := 0; chip < f.geo.Chips(); chip++ {
			d, err := f.arr.Erase(at, chip, block)
			if d > done {
				done = d
			}
			if err != nil {
				if errors.Is(err, nand.ErrEraseFail) {
					f.retireSB(zs.sb, BadBlock{Chip: chip, Block: block, Op: fault.OpErase})
					zs.sb = -1
					break
				}
				return at, err
			}
		}
		if zs.sb >= 0 {
			f.freeSBs = append(f.freeSBs, zs.sb)
			zs.sb = -1
		}
	}

	// Drop mapping entries and cached translations.
	z, err := f.zones.Zone(zone)
	if err != nil {
		return at, err
	}
	if err := f.table.InvalidateZone(z.Start); err != nil {
		return at, err
	}
	f.cache.InvalidateRange(z.Start, f.zoneCap)

	f.stats.ZoneResets++
	// Journal the completed reset with a fresh sequence number: staged SLC
	// copies stamped before this instant belong to the zone's previous life
	// and must not resurrect at recovery. The record lands only after every
	// erase did, so a torn reset leaves no record and recovery treats the
	// zone's survivors as pre-reset data.
	f.arr.MetaAppend(nand.MetaRecord{Kind: nand.MetaZoneReset, Zone: zone, Seq: f.arr.NextSeq()})
	// A reset logs one "zone invalidated" record; the per-sector
	// invalidations are implied by it.
	f.noteMapUpdates(1)
	f.arr.Engine().Observe(done)
	f.record(obs.StageZoneReset, obs.CauseNone, at, done, zone, z.Start, f.zoneCap)
	return done, nil
}

// stagedOf calls fn with the zone offset and staging index of every sector of
// the zone that lives in the SLC staging region: each entry holding a staged
// PSN, then each alignment-tail entry that keeps a zone-linear PSN through
// tailBase (extendTail). A combine and staging GC re-point the entries of what
// they move, so these are the live staged sectors whose LPA lies in the zone.
func (f *FTL) stagedOf(zone int, fn func(off, idx int64) error) error {
	start := int64(zone) * f.zoneCap
	end := start + f.zoneCap
	for lpa := start; ; lpa++ {
		var psn mapping.PSN
		var ok bool
		if lpa, psn, ok = f.table.NextStaged(lpa, end); !ok {
			break
		}
		if err := fn(lpa-start, int64(psn-f.aggLimit)); err != nil {
			return err
		}
	}
	zs := &f.zstate[zone]
	if !zs.tailSet {
		return nil
	}
	for off := f.sbSectors; off < f.zoneCap; off++ {
		if psn, ok := f.table.Get(start + off); ok && psn < f.aggLimit {
			if err := fn(off, zs.tailBase+off-f.sbSectors); err != nil {
				return err
			}
		}
	}
	return nil
}

// OpenZone explicitly opens a zone.
func (f *FTL) OpenZone(zone int) error { return f.zones.Open(zone) }

// CloseZone closes a zone, draining its write buffer first so the buffer
// becomes available to other zones (a closed zone keeps no buffer).
// Validation runs before the drain: a rejected close — and any management
// command against a dead or degraded device — charges no media time.
func (f *FTL) CloseZone(at sim.Time, zone int) (sim.Time, error) {
	if err := f.checkPower(at); err != nil {
		return at, err
	}
	if err := f.checkWritable(); err != nil {
		return at, err
	}
	if err := f.zones.CanClose(zone); err != nil {
		return at, err
	}
	done, err := f.Flush(at, zone)
	if err != nil {
		return at, err
	}
	if err := f.zones.Close(zone); err != nil {
		return at, err
	}
	return done, nil
}

// FinishZone transitions a zone to FULL, charging what a real device
// charges: after the buffer drain, the unwritten remainder of the zone is
// padded out with zero-fill program operations through the regular flush
// path (direct program units, SLC-staged partials and combines, alignment
// tail), so finish latency scales with the zone's unfilled capacity and the
// write pointer lands at capacity *on media*. That makes Finish durable
// across remount by construction — the recovery scan sees a fully
// programmed zone — with a MetaZoneFinish journal record closing the
// torn-finish window. Pad sectors count as PadSectors (WAF overhead), never
// as host-written bytes.
//
// Validation runs first: a rejected finish, or one against a dead or
// degraded device, charges no media time. Finishing an already-Full zone
// pads nothing and changes no state, but it is still a durability barrier:
// a zone that filled by writing can hold its acknowledged tail in the write
// buffer, and the finish drains it like a flush.
func (f *FTL) FinishZone(at sim.Time, zone int) (sim.Time, error) {
	if err := f.checkPower(at); err != nil {
		return at, err
	}
	if err := f.checkWritable(); err != nil {
		return at, err
	}
	if err := f.zones.CanFinish(zone); err != nil {
		return at, err
	}
	z, err := f.zones.Zone(zone)
	if err != nil {
		return at, err
	}
	done, err := f.Flush(at, zone)
	if err != nil {
		return at, err
	}
	if z.State == zns.Full {
		return done, nil // nothing to pad or journal: the drain was the barrier
	}
	pad := z.Start + z.Capacity - z.WP
	if pad > 0 {
		// Pad with nil payload views: the sectors program (and charge, and
		// wear) like data but read back as zeros, exactly what the host sees
		// beyond a finished zone's old write pointer. The pad is issued one
		// program unit at a time, each chunk starting when the previous one
		// completed — consumer firmware pads at queue depth 1 — so finish
		// latency scales with the unfilled capacity instead of collapsing to
		// a single program wave on the busiest chip.
		var landed int64
		off := z.WP - z.Start
		for landed < pad {
			step := f.puSectors - off%f.puSectors
			if rem := pad - landed; step > rem {
				step = rem
			}
			_, d, n, err := f.flushRun(done, zone, z.Start+off, f.padRun(step), obs.CauseFinishPad)
			landed += n
			if err != nil {
				// Keep the zone table consistent with media: the landed pad
				// prefix is mapped, so the write pointer must cover it (the
				// same contract as a failed write's landed prefix). The
				// finish itself fails without acknowledgment.
				if landed > 0 {
					if cerr := f.zones.CommitWrite(z.WP, landed); cerr != nil {
						return at, fmt.Errorf("ftl: finish pad-out of zone %d: %w (committing landed prefix: %v)",
							zone, err, cerr)
					}
				}
				return at, fmt.Errorf("ftl: finish pad-out of zone %d: %w", zone, err)
			}
			off += step
			if d > done {
				done = d
			}
		}
	}
	if err := f.zones.Finish(zone); err != nil {
		return at, err
	}
	f.stats.ZoneFinishes++
	f.stats.PadSectors += pad
	// Journal the completed finish. The record lands only after every pad
	// program did, so a torn pad-out leaves no record and the zone legally
	// recovers Closed at the pad's landed prefix — the finish was never
	// acknowledged.
	f.arr.MetaAppend(nand.MetaRecord{Kind: nand.MetaZoneFinish, Zone: zone, Seq: f.arr.NextSeq()})
	f.arr.Engine().Observe(done)
	f.record(obs.StageZoneFinish, obs.CauseHostFlush, at, done, zone, z.WP, pad)
	return done, nil
}

// padRun returns n all-nil payload views from reused scratch. flushRun and
// everything below it treat the views as read-only, so one zero-value slice
// serves every finish.
func (f *FTL) padRun(n int64) [][]byte {
	if int64(cap(f.padScratch)) < n {
		f.padScratch = make([][]byte, n)
	}
	return f.padScratch[:n]
}

// WearReport summarises block wear: erase counts per normal superblock
// (averaged over its per-chip blocks) and per SLC staging superblock.
// Endurance is the paper's second motivation for the zone abstraction, so
// the emulator makes wear observable.
type WearReport struct {
	NormalSB []float64 // mean erase count per normal superblock
	SLCSB    []float64 // mean erase count per SLC staging superblock
}

// Wear returns the current wear report.
func (f *FTL) Wear() WearReport {
	var r WearReport
	for sb := 0; sb < f.geo.NormalBlocks(); sb++ {
		r.NormalSB = append(r.NormalSB, f.SBEraseMean(sb))
	}
	for sb := 0; sb < f.geo.SLCBlocks; sb++ {
		r.SLCSB = append(r.SLCSB, f.SLCEraseMean(sb))
	}
	return r
}

// Describe returns a short human-readable configuration summary.
func (f *FTL) Describe() string {
	return fmt.Sprintf("ConZone FTL: %d zones x %d sectors, %d write buffers x %d sectors, "+
		"L2P %dB/%dB-entries (%s), chunk %d sectors, SLC staging %d superblocks",
		f.numZones, f.zoneCap, f.params.NumWriteBuffers, f.geo.SuperpageBytes()/4096,
		f.params.L2PCacheBytes, f.params.L2PEntryBytes, f.params.Search,
		f.params.ChunkSectors, f.staging.SuperblockCount())
}
