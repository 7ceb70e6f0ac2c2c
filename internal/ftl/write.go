package ftl

import (
	"errors"
	"fmt"

	"github.com/conzone/conzone/internal/mapping"
	"github.com/conzone/conzone/internal/nand"
	"github.com/conzone/conzone/internal/obs"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/slc"
	"github.com/conzone/conzone/internal/units"
)

// Write handles a host write of len(payloads) sectors starting at lba
// (paper Fig. 3). Payload entries may be nil for workloads that do not
// verify data. It returns the virtual completion time: when the data is
// accepted into the write buffer, which may require waiting for an ongoing
// flush of that buffer and may trigger premature flushes of a conflicting
// zone's data.
func (f *FTL) Write(at sim.Time, lba int64, payloads [][]byte) (sim.Time, error) {
	if err := f.checkPower(at); err != nil {
		return at, err
	}
	if err := f.checkWritable(); err != nil {
		return at, err
	}
	arrival := at
	n := int64(len(payloads))
	zone, err := f.zones.ValidateWrite(lba, n)
	if err != nil {
		return at, err
	}
	// Wait for a free slot in the buffer's flush pipeline.
	bi := f.bufs.BufferIndex(zone)
	at = f.waitFlushSlot(bi, at)
	// Conventional zones may write at any offset; if the buffered run
	// cannot absorb this write contiguously, drain it first.
	if f.zstate[zone].conv {
		if start, cnt := f.bufs.Buffered(zone); cnt > 0 && lba != start+cnt {
			if fl := f.bufs.Take(zone); fl != nil {
				rel, done, landed, err := f.flushRun(at, fl.Zone, fl.StartLBA, fl.Payloads, obs.CauseConvDrain)
				if err != nil {
					f.restoreRun(fl.Zone, fl.StartLBA+landed, fl.Payloads[landed:])
					return at, fmt.Errorf("ftl: conventional drain of zone %d: %w", fl.Zone, err)
				}
				f.noteFlush(bi, rel)
				f.arr.Engine().Observe(done)
			}
		}
	}
	// Conflicting zone-write buffer mapping: evict the occupant (W.1/W.2).
	// The eviction flush is pipelined one deep: the evicted data drains in
	// the background while the incoming write fills the buffer, and the
	// *next* flush of this buffer waits for it (bufAvail above).
	if ev := f.bufs.Evict(zone); ev != nil {
		f.stats.PrematureFlushes++
		rel, done, landed, err := f.flushRun(at, ev.Zone, ev.StartLBA, ev.Payloads, causeOf(ev.Reason))
		if err != nil {
			// The evicted run was acknowledged long ago; put what did not
			// land back and fail only the incoming write.
			f.restoreRun(ev.Zone, ev.StartLBA+landed, ev.Payloads[landed:])
			return at, fmt.Errorf("ftl: premature flush of zone %d: %w", ev.Zone, err)
		}
		f.noteFlush(bi, rel)
		f.arr.Engine().Observe(done)
		f.record(obs.StagePrematureFlush, causeOf(ev.Reason), at, done, ev.Zone, ev.StartLBA, ev.Sectors())
	}
	flushes, err := f.bufs.Append(zone, lba, payloads)
	if err != nil {
		return at, err
	}
	release, done := at, at
	for fi, fl := range flushes {
		rel, d, landed, err := f.flushRun(at, fl.Zone, fl.StartLBA, fl.Payloads, causeOf(fl.Reason))
		if err != nil {
			// A drained run can mix previously acknowledged sectors with this
			// request's new ones; none of the acknowledged ones may be
			// dropped. Rebuild the buffered run back-to-front so each restore
			// stays contiguous: untouched later flushes first, then this
			// flush's un-landed remainder.
			for j := len(flushes) - 1; j > fi; j-- {
				f.restoreRun(flushes[j].Zone, flushes[j].StartLBA, flushes[j].Payloads)
			}
			f.restoreRun(fl.Zone, fl.StartLBA+landed, fl.Payloads[landed:])
			// This request itself failed, so its own sectors were never
			// acknowledged: roll them back out of the buffer. Any prefix of
			// the request that already reached media keeps its mapping and
			// advances the write pointer, so media, mapping, WP and buffer
			// stay mutually consistent (the audit's zone-wp identities hold
			// even after a failed write).
			trimAt := lba
			if landedEnd := fl.StartLBA + landed; landedEnd > lba {
				if cerr := f.zones.CommitWrite(lba, landedEnd-lba); cerr != nil {
					return at, fmt.Errorf("ftl: flush of zone %d: %w (committing landed prefix: %v)",
						fl.Zone, err, cerr)
				}
				trimAt = landedEnd
			}
			f.bufs.TrimFrom(zone, trimAt)
			return at, fmt.Errorf("ftl: flush of zone %d: %w", fl.Zone, err)
		}
		if rel > release {
			release = rel
		}
		if d > done {
			done = d
		}
	}
	if len(flushes) > 0 {
		f.noteFlush(bi, release)
	}
	if err := f.zones.CommitWrite(lba, n); err != nil {
		return at, err
	}
	f.stats.HostWrittenBytes += n * units.Sector
	f.arr.Engine().Observe(done)
	// Persist the L2P log if this request tripped its capacity; the log
	// flush blocks the host request (paper §III-E).
	at, err = f.maybeFlushL2PLog(at)
	if err != nil {
		return at, err
	}
	// The host sees the write complete once the buffer accepted it; the
	// flush continues in the background (bufAvail throttles successors).
	f.record(obs.StageHostWrite, obs.CauseNone, arrival, at, zone, lba, n)
	return at, nil
}

// Append implements Zone Append (NVMe ZNS): the device, not the host,
// chooses the in-zone offset. The payloads land at the zone's current
// write pointer and the assigned start LBA is returned alongside the
// completion time. The host-interface layer serializes appends to one zone,
// so the write pointer read here is stable for the duration of the write.
func (f *FTL) Append(at sim.Time, zone int, payloads [][]byte) (int64, sim.Time, error) {
	lba, err := f.zones.AppendLBA(zone, int64(len(payloads)))
	if err != nil {
		return -1, at, err
	}
	done, err := f.Write(at, lba, payloads)
	if err != nil {
		return -1, at, err
	}
	return lba, done, nil
}

// Flush forces the zone's buffered data to media (synchronous flush /
// cache flush command). Partial programming-unit tails detour through SLC.
func (f *FTL) Flush(at sim.Time, zone int) (sim.Time, error) {
	if err := f.checkPower(at); err != nil {
		return at, err
	}
	if zone < 0 || zone >= f.numZones {
		return at, fmt.Errorf("ftl: flush of invalid zone %d", zone)
	}
	fl := f.bufs.Take(zone)
	if fl == nil {
		return at, nil
	}
	rel, done, landed, err := f.flushRun(at, fl.Zone, fl.StartLBA, fl.Payloads, causeOf(fl.Reason))
	if err != nil {
		// The run was acknowledged when the buffer accepted it; a failed
		// flush must not drop it. Whatever did not land goes back into the
		// buffer, where it stays readable and a later flush retries it.
		f.restoreRun(fl.Zone, fl.StartLBA+landed, fl.Payloads[landed:])
		return at, err
	}
	f.noteFlush(f.bufs.BufferIndex(zone), rel)
	// A host-visible flush is a durability barrier: return the time the
	// data is actually on media, including any L2P-log persistence it
	// tripped.
	return f.maybeFlushL2PLog(done)
}

// FlushAll drains every buffer (device cache flush).
func (f *FTL) FlushAll(at sim.Time) (sim.Time, error) {
	if err := f.checkPower(at); err != nil {
		return at, err
	}
	done := at
	for zone := 0; zone < f.numZones; zone++ {
		d, err := f.Flush(at, zone)
		if err != nil {
			return at, err
		}
		if d > done {
			done = d
		}
	}
	return done, nil
}

// restoreRun returns a failed flush's un-landed sectors to the write buffer
// (no-op for an empty remainder). These sectors were acknowledged to the
// host when the buffer accepted them; restoring keeps them readable and lets
// a later flush retry. A restore can only be rejected if an unrelated run
// claimed the buffer mid-flush, which no current path allows — if it ever
// happens the loss is counted instead of silently ignored.
func (f *FTL) restoreRun(zone int, startLBA int64, payloads [][]byte) {
	if len(payloads) == 0 {
		return
	}
	if err := f.bufs.Restore(zone, startLBA, payloads); err != nil {
		f.stats.LostAckSectors += int64(len(payloads))
	}
}

// flushRun routes one contiguous buffered run of a zone to media,
// implementing the decision of Fig. 3: whole program units go directly to
// the zone's reserved normal superblock (①); partial units are staged to
// SLC (②); staged partials that now complete a unit are read back,
// invalidated and programmed together with the new data (③). Alignment
// tails (offsets beyond the superblock capacity) go to reserved SLC runs.
//
// landed reports how many leading sectors of the run reached durable media
// (normal blocks or SLC) before an error; callers restore payloads[landed:]
// to the write buffer so acknowledged data survives the failure.
func (f *FTL) flushRun(at sim.Time, zone int, startLBA int64, payloads [][]byte, cause obs.Cause) (release, done sim.Time, landed int64, err error) {
	z, err := f.zones.Zone(zone)
	if err != nil {
		return at, at, 0, err
	}
	off := startLBA - z.Start
	n := int64(len(payloads))
	release, done = at, at

	if f.zstate[zone].conv {
		// Conventional zones are SLC-resident and page-mapped; in-place
		// updates invalidate the previous staged copies. Staging is
		// all-or-nothing, so a failure lands zero sectors.
		release, done, err = f.stageConventional(at, zone, startLBA, payloads)
		if err != nil {
			return at, at, 0, err
		}
		f.record(obs.StageConvStage, cause, at, done, zone, startLBA, int64(len(payloads)))
		return release, done, int64(len(payloads)), nil
	}

	for n > 0 {
		if off >= f.sbSectors {
			// Alignment tail: everything left goes to reserved SLC.
			rel, d, err := f.stageSectors(at, zone, off, payloads, cause)
			if err != nil {
				return at, at, landed, err
			}
			landed += int64(len(payloads))
			if rel > release {
				release = rel
			}
			if d > done {
				done = d
			}
			break
		}
		// Segment within the current program unit.
		puStart := off - off%f.puSectors
		puEnd := puStart + f.puSectors
		if puEnd > f.sbSectors {
			puEnd = f.sbSectors // cannot happen with sbSectors % puSectors == 0
		}
		segLen := puEnd - off
		if segLen > n {
			segLen = n
		}
		seg := payloads[:segLen]

		rel, d, err := f.writeHeadSegment(at, zone, off, seg, off+segLen == puEnd, cause)
		if err != nil {
			return at, at, landed, err
		}
		if rel > release {
			release = rel
		}
		if d > done {
			done = d
		}
		landed += segLen
		payloads = payloads[segLen:]
		off += segLen
		n -= segLen
	}
	return release, done, landed, nil
}

// writeHeadSegment places one run confined to a single program unit.
// completesPU tells whether the run ends exactly at the unit boundary.
// cause carries why the run was flushed into the recorded spans.
func (f *FTL) writeHeadSegment(at sim.Time, zone int, off int64, seg [][]byte, completesPU bool, cause obs.Cause) (release, done sim.Time, err error) {
	zs := &f.zstate[zone]
	z, _ := f.zones.Zone(zone)
	puStart := off - off%f.puSectors

	if !completesPU {
		// Fig. 3 ②: not enough data to program; stage to SLC.
		return f.stageSectors(at, zone, off, seg, cause)
	}
	if off == puStart {
		// Fig. 3 ①: the run is exactly one full program unit.
		release, done, err = f.programPU(at, zone, puStart, seg)
		if err == nil {
			f.record(obs.StageDirectPU, cause, at, done, zone, z.Start+puStart, f.puSectors)
		}
		return release, done, err
	}
	if f.params.DisableCombine {
		// Ablation: no read-back/merge; the completing data is staged
		// alongside the earlier partial.
		return f.stageSectors(at, zone, off, seg, cause)
	}
	// Fig. 3 ③: staged head + new tail complete the unit. Read the staged
	// sectors back, invalidate them, and program the merged unit.
	if int64(len(zs.pend)) != off-puStart {
		return at, at, fmt.Errorf("ftl: zone %d pend %d sectors, expected %d",
			zone, len(zs.pend), off-puStart)
	}
	// The merged unit borrows the staged sectors' payload slabs plus the
	// incoming segment's host buffers; programPU copies every view into
	// pooled media storage before the staged copies are invalidated, so
	// nothing below retains either.
	idxs := f.combineIdx[:0]
	merged := f.combineBuf
	for i, p := range zs.pend {
		if p.off != puStart+int64(i) {
			return at, at, fmt.Errorf("ftl: zone %d pend discontinuity at %d", zone, p.off)
		}
		idxs = append(idxs, p.gidx)
		merged[i] = f.staging.Payload(p.gidx)
	}
	f.combineIdx = idxs
	copy(merged[off-puStart:], seg)

	readDone, err := f.staging.ReadSectors(at, idxs)
	if err != nil {
		return at, at, err
	}
	_, done, err = f.programPU(readDone, zone, puStart, merged)
	for i := range merged {
		merged[i] = nil // drop borrowed views; scratch is reused next combine
	}
	if err != nil {
		return at, at, err
	}
	for _, p := range zs.pend {
		if err := f.staging.Invalidate(p.gidx); err != nil {
			return at, at, err
		}
		delete(zs.staged, p.gidx)
	}
	zs.pend = zs.pend[:0]
	f.stats.Combines++
	f.record(obs.StageCombine, cause, at, done, zone, z.Start+puStart, f.puSectors)
	// The combine runs asynchronously: the controller copies the new
	// segment into a one-PU SRAM staging buffer, freeing the write buffer
	// immediately, and performs the read-back + merged program in the
	// background. Host backpressure still arrives through the chips'
	// cache-register pipeline, which delays subsequent staging transfers.
	return at, done, nil
}

// programPU programs one full unit into the zone's reserved superblock and
// updates the mapping with zone-linear PSNs, aggregating when boundaries
// are reached (Fig. 5).
func (f *FTL) programPU(at sim.Time, zone int, puStart int64, sectors [][]byte) (release, done sim.Time, err error) {
	if err := f.bindSB(zone); err != nil {
		return at, at, err
	}
	addr, err := f.headLoc(zone, puStart)
	if err != nil {
		return at, at, err
	}
	release, done, err = f.arr.ProgramPU(at, addr.Chip, addr.Block, addr.Page-addr.Page%f.pagesPerPU, sectors)
	if err != nil {
		if !errors.Is(err, nand.ErrProgramFail) {
			return at, at, err
		}
		// Grown bad block: relocate the superblock's contents to a spare,
		// retire the bad one, and retry the unit there (tentpole error path).
		release, done, err = f.recoverPUProgram(at, zone, puStart, addr.Chip, sectors)
		if err != nil {
			return at, at, err
		}
		// The relocation re-bound the zone; the unit landed on the spare.
		addr, err = f.headLoc(zone, puStart)
		if err != nil {
			return at, at, err
		}
	}
	z, _ := f.zones.Zone(zone)
	// OOB stamps for recovery: every sector of the landed unit records its
	// logical address and position in global program order.
	stampBase := f.ppaOf(nand.Addr{Chip: addr.Chip, Block: addr.Block, Page: addr.Page - addr.Page%f.pagesPerPU})
	for i := int64(0); i < f.puSectors; i++ {
		f.arr.StampOOB(stampBase+nand.PPA(i), z.Start+puStart+i)
	}
	// A combine (Fig. 3 ③) re-points previously staged sectors at the
	// normal area; cached translations of their staged PSNs are now stale
	// and would dangle once the SLC copies are garbage-collected. They go
	// before the unit is mapped: mapping it may pin a fresh aggregated entry.
	f.cache.InvalidateRange(z.Start+puStart, f.puSectors)
	if err := f.landHead(zone, puStart, f.puSectors); err != nil {
		return at, at, err
	}
	f.noteMapUpdates(f.puSectors)
	f.stats.DirectPUs++
	return release, done, nil
}

// landHead is the one statement of "sectors [off, off+n) of the zone landed
// in its bound superblock": they take zone-linear PSNs, which resolve through
// the binding (headLoc), and every map entry they complete is widened (Fig.
// 5). The write path calls it per program unit, the mount per recovered head.
func (f *FTL) landHead(zone int, off, n int64) error {
	base := int64(zone)*f.zoneCap + off
	for i := int64(0); i < n; i++ {
		if err := f.table.Set(base+i, mapping.PSN(base+i)); err != nil {
			return err
		}
	}
	f.aggregateAfterWrite(zone, off, n)
	return nil
}

// landStaged is the one statement of "sectors [off, off+len(gidxs)) of the
// zone landed at staging indices gidxs": the zone owns the indices until its
// reset, the sectors are page-mapped to them — except in an alignment tail
// that is still one staging run (extendTail), whose sectors keep zone-linear
// PSNs and may complete a chunk or the zone — and a head-region sector joins
// the pending partial unit (Fig. 3 ③). A sector already pending was moved by
// staging GC and keeps its place: pend holds consecutive offsets. Staging
// appends, GC relocation and the mount all map through here.
func (f *FTL) landStaged(zone int, off int64, gidxs []int64) error {
	zs := &f.zstate[zone]
	base := int64(zone)*f.zoneCap + off
	linear := off >= f.sbSectors && zs.tailSet && zs.tailContig
	pending := off < f.sbSectors && !zs.conv && !f.params.DisableCombine
	for i, g := range gidxs {
		psn := f.aggLimit + mapping.PSN(g)
		if linear {
			psn = mapping.PSN(base + int64(i))
		}
		if err := f.table.Set(base+int64(i), psn); err != nil {
			return err
		}
		zs.staged[g] = struct{}{}
		if !pending {
			continue
		}
		o := off + int64(i)
		if n := len(zs.pend); n > 0 && o <= zs.pend[n-1].off {
			zs.pend[o-zs.pend[0].off].gidx = g
		} else {
			zs.pend = append(zs.pend, pendSector{off: o, gidx: g})
		}
	}
	if linear {
		f.aggregateAfterWrite(zone, off, int64(len(gidxs)))
	}
	return nil
}

// stageSectors sends a sequential zone's run that cannot be programmed in
// place to the SLC staging region: a partial program unit (Fig. 3 ②), pending
// a later combine, or alignment-tail sectors (paper §III-E), which keep
// zone-linear PSNs — so the whole zone can still aggregate — as long as the
// tail forms one contiguous staging run. cause carries why the run was
// flushed into the recorded span.
func (f *FTL) stageSectors(at sim.Time, zone int, off int64, seg [][]byte, cause obs.Cause) (release, done sim.Time, err error) {
	z, _ := f.zones.Zone(zone)
	gidxs, release, done, err := f.appendStaged(at, z.Start+off, seg)
	if err != nil {
		return at, at, err
	}
	stage, counter := obs.StageSLCStage, &f.stats.StagedSectors
	if off >= f.sbSectors {
		stage, counter = obs.StageTailStage, &f.stats.TailSectors
		f.extendTail(zone, off, gidxs)
	}
	if err := f.landStaged(zone, off, gidxs); err != nil {
		return at, at, err
	}
	f.noteMapUpdates(int64(len(seg)))
	*counter += int64(len(seg))
	f.record(stage, cause, at, done, zone, z.Start+off, int64(len(seg)))
	return release, done, nil
}

// stageConventional places a conventional zone's run into the SLC region
// with in-place-update semantics: the previous staged copy of each sector
// is invalidated, the new copy is page-mapped, and covering cache entries
// are dropped.
func (f *FTL) stageConventional(at sim.Time, zone int, startLBA int64, payloads [][]byte) (release, done sim.Time, err error) {
	zs := &f.zstate[zone]
	gidxs, release, done, err := f.appendStaged(at, startLBA, payloads)
	if err != nil {
		return at, at, err
	}
	for lpa := startLBA; lpa < startLBA+int64(len(gidxs)); lpa++ {
		// Invalidate the overwritten copy, if any.
		if old, ok := f.table.Get(lpa); ok && old >= f.aggLimit {
			oldIdx := int64(old - f.aggLimit)
			if f.staging.IsValid(oldIdx) {
				if err := f.staging.Invalidate(oldIdx); err != nil {
					return at, at, err
				}
			}
			delete(zs.staged, oldIdx)
		}
	}
	if err := f.landStaged(zone, startLBA-int64(zone)*f.zoneCap, gidxs); err != nil {
		return at, at, err
	}
	f.cache.InvalidateRange(startLBA, int64(len(gidxs)))
	f.noteMapUpdates(int64(len(payloads)))
	f.stats.StagedSectors += int64(len(payloads))
	return release, done, nil
}

// extendTail is the tail-contiguity predicate, evaluated for every run that
// lands in a zone's alignment tail, at write time and at mount: the tail is
// zone-linear from the run that starts it — at offset sbSectors, its first
// index becoming tailBase — for as long as every run is internally
// consecutive and continues that staging run.
func (f *FTL) extendTail(zone int, off int64, gidxs []int64) {
	zs := &f.zstate[zone]
	contig := true
	for i := 1; i < len(gidxs) && contig; i++ {
		contig = gidxs[i] == gidxs[0]+int64(i)
	}
	if !zs.tailSet && off == f.sbSectors && contig {
		zs.tailBase, zs.tailSet, zs.tailContig = gidxs[0], true, true
		return
	}
	zs.tailContig = zs.tailContig && contig && gidxs[0] == zs.tailBase+(off-f.sbSectors)
}

// aggregateAfterWrite tries to widen map entries after [off, off+n) of the
// zone was written with zone-linear PSNs: any chunk that completed is
// promoted, and if the zone is fully written and zone aggregation is
// enabled, the zone entry is promoted (Fig. 5 ②). Every touched chunk is
// offered: while a chunk is still filling the table refuses it in O(1), so
// there is no completeness check here.
func (f *FTL) aggregateAfterWrite(zone int, off, n int64) {
	if f.params.DisableAggregation {
		return
	}
	z, _ := f.zones.Zone(zone)
	chunk := f.params.ChunkSectors
	firstChunk := off / chunk
	lastChunk := (off + n - 1) / chunk
	for c := firstChunk; c <= lastChunk; c++ {
		lpa := z.Start + c*chunk
		wasAgg := f.table.Bits(lpa) >= mapping.Chunk
		if f.table.TryAggregateChunk(lpa) && !wasAgg && f.params.Search == Pinned {
			_, g, base, ok := f.table.Effective(lpa)
			if ok && g == mapping.Chunk {
				f.cache.Insert(mapping.Chunk, lpa, base, true)
			}
		}
	}
	if f.params.AggregateZones && off+n == f.zoneCap {
		lpa := z.Start
		wasAgg := f.table.Bits(lpa) == mapping.Zone
		if f.table.TryAggregateZone(lpa) && !wasAgg && f.params.Search == Pinned {
			_, g, base, ok := f.table.Effective(lpa)
			if ok && g == mapping.Zone {
				f.cache.Insert(mapping.Zone, lpa, base, true)
			}
		}
	}
}

// appendStaged is the one way data enters the SLC staging region: the write
// list for consecutive LPAs starting at base, one entry per payload, is
// built in the FTL's reused scratch slice (the region consumes it
// synchronously), staging is collected first when it cannot take the run,
// and the run is appended. done is never earlier than the collection's end.
func (f *FTL) appendStaged(at sim.Time, base int64, payloads [][]byte) (gidxs []int64, release, done sim.Time, err error) {
	ws := f.wsScratch[:0]
	for i := range payloads {
		ws = append(ws, slc.Write{LPA: base + int64(i), Payload: payloads[i]})
	}
	f.wsScratch = ws
	start := at
	if !f.staging.HasSpace(int64(len(ws))) {
		if start, err = f.staging.EnsureSpace(at, int64(len(ws)), relocator{f}); err != nil {
			return nil, at, at, fmt.Errorf("ftl: staging GC: %w", f.stagingErr(err))
		}
	}
	gidxs, release, done, err = f.staging.Append(start, ws)
	if err != nil {
		return nil, at, at, f.stagingErr(err)
	}
	return gidxs, release, sim.Max(done, start), nil
}

// relocator adapts the FTL to the staging region's GC callback. A staged
// sector moving from oldIdx to newIdx must be re-pointed in the mapping
// table; if the sector held a zone-linear tail PSN, the move breaks the
// deterministic tail translation, so the entry is demoted to a staged PSN
// and the tail is marked non-contiguous.
type relocator struct{ f *FTL }

func (r relocator) Relocate(lpa, oldIdx, newIdx int64) error {
	f := r.f
	zone := int(lpa / f.zoneCap)
	if zone < 0 || zone >= f.numZones {
		return fmt.Errorf("ftl: relocate of LPA %d outside any zone", lpa)
	}
	zs := &f.zstate[zone]
	psn, ok := f.table.Get(lpa)
	if !ok {
		return fmt.Errorf("ftl: relocate of unmapped LPA %d", lpa)
	}
	if psn < f.aggLimit {
		// Zone-linear tail sector: translation via tailBase no longer
		// covers it after the move.
		zs.tailContig = false
	}
	delete(zs.staged, oldIdx)
	if err := f.landStaged(zone, lpa-int64(zone)*f.zoneCap, []int64{newIdx}); err != nil {
		return err
	}
	f.noteMapUpdates(1)
	f.cache.InvalidateRange(lpa, 1)
	return nil
}
