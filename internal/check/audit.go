// Package check is the cross-subsystem invariant auditor and differential
// fuzz harness of the emulator. ConZone's correctness rests on bookkeeping
// identities that span many layers — mapping entries vs. NAND programmed
// state, zone write pointers vs. buffered and flushed runs, the L2P cache
// vs. the mapping table, SLC staging occupancy vs. composite GC — and
// Audit verifies all of them in one pass over a quiescent FTL.
//
// Every violation is reported with a stable invariant name in square
// brackets (e.g. "audit[zone-wp]: ..."), so tests and operators can tell
// which subsystem pair drifted apart:
//
//	substrate       a substrate's own self-check failed
//	map-phys        a mapped PSN does not resolve to a physical address
//	map-nand        a mapped sector points at unprogrammed flash
//	map-zone        a reserved PSN belongs to a different zone than its LPA
//	map-staging     mapping vs. staging validity / reverse-map mismatch
//	staging-leak    valid staged sectors no mapping entry references
//	zone-staged     a zone's staged-index ownership set is out of sync
//	zone-wp         write pointer vs. mapped/buffered sector disagreement
//	wbuf-run        a buffered run is malformed (two buffers, out of zone)
//	head-extent     bound superblock programmed extent vs. head mappings
//	sb-binding      superblock bound/free accounting broken
//	sb-retired      retired-superblock / bad-block table accounting broken
//	staging-extent  staging write pointer vs. per-chip block append points
//	cache-stale     an L2P cache entry translates differently than the table
//	cache-gran      a cache entry is wider than the table's map bits
//	cache-pin       a pinned entry exists outside the PINNED strategy
//	stats-waf       write-amplification byte accounting identity broken
//	stats-erase     erase counters inconsistent with per-block/GC counts
//	stats-map       map-fetch counters inconsistent
//
// AuditHost extends the audit across the multi-queue host interface
// (internal/host) with host-zone-lock, host-append and host-tags; see its
// documentation.
package check

import (
	"fmt"

	"github.com/conzone/conzone/internal/ftl"
	"github.com/conzone/conzone/internal/l2pcache"
	"github.com/conzone/conzone/internal/mapping"
	"github.com/conzone/conzone/internal/obs"
	"github.com/conzone/conzone/internal/units"
	"github.com/conzone/conzone/internal/wbuf"
)

// auditTailEvents is how many flight-recorder events a violation message
// carries: enough to see the operation sequence that corrupted state
// without flooding fuzzer reproducer logs.
const auditTailEvents = 32

// Audit verifies the cross-subsystem bookkeeping identities of a ConZone
// FTL between operations. It returns nil when every invariant holds, or an
// error naming the first violated invariant. When the FTL has a lifecycle
// recorder attached, the violation message carries the flight recorder's
// tail so reproducers show the I/O path that corrupted state.
func Audit(f *ftl.FTL) error {
	err := audit(f)
	if err == nil {
		return nil
	}
	if tail := obs.FormatTail(f.Recorder(), auditTailEvents); tail != "" {
		return fmt.Errorf("%w\nflight recorder (last %d lifecycle events):\n%s",
			err, len(f.Recorder().Tail(auditTailEvents)), tail)
	}
	return err
}

func audit(f *ftl.FTL) error {
	if err := substrates(f); err != nil {
		return err
	}
	refs, headMapped, err := walkMapping(f)
	if err != nil {
		return err
	}
	if total := f.Staging().TotalValid(); int64(len(refs)) != total {
		return fmt.Errorf("audit[staging-leak]: staging holds %d valid sectors but the mapping references %d (%d leaked valid pages)",
			total, len(refs), total-int64(len(refs)))
	}
	if err := auditZones(f, refs, headMapped); err != nil {
		return err
	}
	if err := auditSuperblocks(f); err != nil {
		return err
	}
	if err := auditBadBlocks(f); err != nil {
		return err
	}
	if err := auditStagingExtent(f); err != nil {
		return err
	}
	if err := auditCache(f); err != nil {
		return err
	}
	return auditStats(f)
}

// substrates runs each substrate's own self-check first, so deeper checks
// can trust basic accounting.
func substrates(f *ftl.FTL) error {
	if err := f.Table().CheckInvariants(); err != nil {
		return fmt.Errorf("audit[substrate]: %w", err)
	}
	if err := f.Cache().CheckInvariants(); err != nil {
		return fmt.Errorf("audit[substrate]: %w", err)
	}
	if err := f.Staging().CheckInvariants(); err != nil {
		return fmt.Errorf("audit[substrate]: %w", err)
	}
	return nil
}

// walkMapping visits every mapped LPA once: each must resolve to a
// programmed physical sector, reserved PSNs must stay inside their LPA's
// zone, and staging-resident sectors must be live, reverse-mapped to the
// same LPA, and referenced exactly once. It returns the staging-index
// reference map and the per-zone count of head-region (bound superblock)
// mappings. Only zones the table has allocated are walked, so the cost
// follows the zones written, not the namespace.
func walkMapping(f *ftl.FTL) (map[int64]int64, []int64, error) {
	geo := f.Geometry()
	arr := f.Array()
	reg := f.Staging()
	table := f.Table()
	zoneCap := f.ZoneCapSectors()
	head := f.HeadSectors()
	refs := make(map[int64]int64) // staging linear index -> owning LPA
	headMapped := make([]int64, f.NumZones())
	for zi := 0; zi < f.NumZones(); zi++ {
		if !table.Allocated(zi) {
			continue // no table, no entry: the walk costs what is mapped
		}
		start := int64(zi) * zoneCap
		for lpa := start; lpa < start+zoneCap; lpa++ {
			psn, ok := table.Get(lpa)
			if !ok {
				continue
			}
			addr, err := f.ResolvePSN(psn)
			if err != nil {
				return nil, nil, fmt.Errorf("audit[map-phys]: LPA %d -> PSN %d does not resolve: %w", lpa, psn, err)
			}
			if !arr.IsWritten(geo.PPAOf(addr)) {
				return nil, nil, fmt.Errorf("audit[map-nand]: LPA %d -> PSN %d (%+v) points at an unprogrammed sector", lpa, psn, addr)
			}
			if psn < f.AggLimit() {
				zone := int64(psn) / zoneCap
				if zone != lpa/zoneCap {
					return nil, nil, fmt.Errorf("audit[map-zone]: LPA %d of zone %d holds reserved PSN %d of zone %d",
						lpa, lpa/zoneCap, psn, zone)
				}
				if int64(psn)%zoneCap < head {
					headMapped[zone]++
					continue
				}
				// Alignment-tail PSN: resolves into staging, checked below.
			}
			idx, err := reg.IndexOf(addr)
			if err != nil {
				return nil, nil, fmt.Errorf("audit[map-staging]: LPA %d -> PSN %d: %v", lpa, psn, err)
			}
			if prev, dup := refs[idx]; dup {
				return nil, nil, fmt.Errorf("audit[map-staging]: staging index %d referenced by both LPA %d and LPA %d", idx, prev, lpa)
			}
			if !reg.IsValid(idx) {
				return nil, nil, fmt.Errorf("audit[map-staging]: LPA %d maps to dead staging index %d", lpa, idx)
			}
			rl, err := reg.LPAAt(idx)
			if err != nil || rl != lpa {
				return nil, nil, fmt.Errorf("audit[map-staging]: staging index %d reverse-maps to LPA %d, but LPA %d points at it", idx, rl, lpa)
			}
			refs[idx] = lpa
		}
	}
	return refs, headMapped, nil
}

// auditZones checks, per zone: the staged-index ownership set against the
// mapping's references, pend-run contiguity, the bound superblock's
// programmed extent against head mappings, and — for sequential zones —
// that every sector below the write pointer is exactly one of mapped or
// write-buffered, that nothing at or beyond the write pointer is mapped,
// and that a buffered run ends exactly at the write pointer.
func auditZones(f *ftl.FTL, refs map[int64]int64, headMapped []int64) error {
	geo := f.Geometry()
	arr := f.Array()
	table := f.Table()
	zm := f.Zones()
	zoneCap := f.ZoneCapSectors()

	runByZone := make(map[int]wbuf.Run)
	for _, r := range f.Buffers().Runs() {
		if _, dup := runByZone[r.Zone]; dup {
			return fmt.Errorf("audit[wbuf-run]: zone %d occupies two write buffers", r.Zone)
		}
		runByZone[r.Zone] = r
	}

	owned := make(map[int64]int) // staging index -> owning zone
	var ownedTotal int64
	for zone := 0; zone < f.NumZones(); zone++ {
		z, err := zm.Zone(zone)
		if err != nil {
			return err
		}
		zd, err := f.ZoneDebugInfo(zone)
		if err != nil {
			return err
		}

		for _, g := range zd.Staged {
			if prev, dup := owned[g]; dup {
				return fmt.Errorf("audit[zone-staged]: staging index %d owned by zones %d and %d", g, prev, zone)
			}
			owned[g] = zone
			lpa, ok := refs[g]
			if !ok {
				return fmt.Errorf("audit[zone-staged]: zone %d owns staging index %d that no mapping entry references", zone, g)
			}
			if lpa < z.Start || lpa >= z.Start+zoneCap {
				return fmt.Errorf("audit[zone-staged]: zone %d owns staging index %d, mapped by LPA %d outside the zone", zone, g, lpa)
			}
		}
		ownedTotal += int64(len(zd.Staged))

		for i, off := range zd.PendOffsets {
			if i > 0 && off != zd.PendOffsets[i-1]+1 {
				return fmt.Errorf("audit[zone-staged]: zone %d pend run discontinuity at offset %d", zone, off)
			}
		}

		if zd.SB >= 0 {
			block := geo.FirstNormalBlock() + zd.SB
			var programmed int64
			for chip := 0; chip < geo.Chips(); chip++ {
				programmed += int64(arr.NextProgramSector(chip, block))
			}
			if programmed != headMapped[zone] {
				return fmt.Errorf("audit[head-extent]: zone %d superblock %d holds %d programmed sectors but %d head-mapped entries",
					zone, zd.SB, programmed, headMapped[zone])
			}
		} else if headMapped[zone] != 0 {
			return fmt.Errorf("audit[head-extent]: zone %d has %d head-mapped entries without a bound superblock", zone, headMapped[zone])
		}

		if zd.Conventional {
			if r, ok := runByZone[zone]; ok {
				if r.StartLBA < z.Start || r.StartLBA+r.Sectors > z.Start+zoneCap {
					return fmt.Errorf("audit[wbuf-run]: conventional zone %d buffers run [%d,%d) outside the zone",
						zone, r.StartLBA, r.StartLBA+r.Sectors)
				}
			}
			continue
		}

		if z.WP < z.Start || z.WP > z.Start+z.Capacity {
			return fmt.Errorf("audit[zone-wp]: zone %d write pointer %d outside [%d,%d]", zone, z.WP, z.Start, z.Start+z.Capacity)
		}
		r, buffered := runByZone[zone]
		if buffered && r.StartLBA+r.Sectors != z.WP {
			return fmt.Errorf("audit[zone-wp]: zone %d buffered run ends at %d but write pointer is %d", zone, r.StartLBA+r.Sectors, z.WP)
		}
		// Beyond the write pointer only a mapping entry can be wrong, and a
		// zone without a table has none: the scan stops at the write pointer.
		end := z.WP
		if table.Allocated(zone) {
			end = z.Start + zoneCap
		}
		for lpa := z.Start; lpa < end; lpa++ {
			inBuf := buffered && lpa >= r.StartLBA && lpa < r.StartLBA+r.Sectors
			_, mapped := table.Get(lpa)
			committed := lpa < z.WP
			switch {
			case mapped && !committed:
				return fmt.Errorf("audit[zone-wp]: zone %d LPA %d mapped beyond write pointer %d", zone, lpa, z.WP)
			case mapped && inBuf:
				return fmt.Errorf("audit[zone-wp]: zone %d LPA %d both mapped and write-buffered", zone, lpa)
			case !mapped && committed && !inBuf:
				return fmt.Errorf("audit[zone-wp]: zone %d LPA %d committed (WP %d) but neither mapped nor buffered", zone, lpa, z.WP)
			}
		}
	}
	if ownedTotal != int64(len(refs)) {
		return fmt.Errorf("audit[zone-staged]: zones own %d staging indices but the mapping references %d", ownedTotal, len(refs))
	}
	return nil
}

// auditSuperblocks checks that every normal superblock is exactly one of
// bound to a zone, on the free list, or retired, and that free superblocks
// are fully erased.
func auditSuperblocks(f *ftl.FTL) error {
	geo := f.Geometry()
	arr := f.Array()
	free := f.FreeSBList()
	retired := f.RetiredSBList()
	boundTo := make(map[int]int)
	for zone := 0; zone < f.NumZones(); zone++ {
		zd, err := f.ZoneDebugInfo(zone)
		if err != nil {
			return err
		}
		if zd.SB < 0 {
			continue
		}
		if prev, dup := boundTo[zd.SB]; dup {
			return fmt.Errorf("audit[sb-binding]: superblock %d bound to zones %d and %d", zd.SB, prev, zone)
		}
		boundTo[zd.SB] = zone
	}
	retiredSet := make(map[int]bool, len(retired))
	for _, sb := range retired {
		if sb < 0 || sb >= geo.NormalBlocks() {
			return fmt.Errorf("audit[sb-retired]: retired superblock %d outside [0,%d)", sb, geo.NormalBlocks())
		}
		if retiredSet[sb] {
			return fmt.Errorf("audit[sb-retired]: superblock %d retired twice", sb)
		}
		retiredSet[sb] = true
		if zone, dup := boundTo[sb]; dup {
			return fmt.Errorf("audit[sb-retired]: superblock %d both retired and bound to zone %d", sb, zone)
		}
	}
	for _, sb := range free {
		if zone, dup := boundTo[sb]; dup {
			return fmt.Errorf("audit[sb-binding]: superblock %d both free and bound to zone %d", sb, zone)
		}
		if retiredSet[sb] {
			return fmt.Errorf("audit[sb-retired]: superblock %d both retired and free", sb)
		}
		block := geo.FirstNormalBlock() + sb
		for chip := 0; chip < geo.Chips(); chip++ {
			if n := arr.NextProgramSector(chip, block); n != 0 {
				return fmt.Errorf("audit[sb-binding]: free superblock %d not erased: chip %d has %d programmed sectors", sb, chip, n)
			}
		}
	}
	if len(boundTo)+len(free)+len(retired) != geo.NormalBlocks() {
		return fmt.Errorf("audit[sb-binding]: %d bound + %d free + %d retired superblocks != %d total",
			len(boundTo), len(free), len(retired), geo.NormalBlocks())
	}
	return nil
}

// auditBadBlocks checks the grown-bad bookkeeping: the bad-block table and
// the retired-superblock list record the same failures (one record per
// retirement, each naming a chip and block inside the retired superblock),
// the retirement counters match the lists, and nothing is retired at all
// while the fault model is disabled.
func auditBadBlocks(f *ftl.FTL) error {
	geo := f.Geometry()
	retired := f.RetiredSBList()
	bad := f.BadBlockTable()
	slcRetired := f.Staging().RetiredSuperblocks()
	if f.FaultInjector() == nil && (len(bad) > 0 || len(retired) > 0 || slcRetired > 0) {
		return fmt.Errorf("audit[sb-retired]: fault model disabled but %d bad blocks, %d retired normal and %d retired SLC superblocks recorded",
			len(bad), len(retired), slcRetired)
	}
	if len(bad) != len(retired) {
		return fmt.Errorf("audit[sb-retired]: %d bad-block records but %d retired superblocks", len(bad), len(retired))
	}
	retiredSet := make(map[int]bool, len(retired))
	for _, sb := range retired {
		retiredSet[sb] = true
	}
	for i, bb := range bad {
		if bb.Chip < 0 || bb.Chip >= geo.Chips() {
			return fmt.Errorf("audit[sb-retired]: bad-block record %d names chip %d of %d", i, bb.Chip, geo.Chips())
		}
		sb := bb.Block - geo.FirstNormalBlock()
		if !retiredSet[sb] {
			return fmt.Errorf("audit[sb-retired]: bad-block record %d names block %d (superblock %d) which is not retired", i, bb.Block, sb)
		}
	}
	st := f.Stats()
	if st.RetiredSuperblocks != int64(len(retired)) {
		return fmt.Errorf("audit[sb-retired]: stats count %d retired superblocks but the list holds %d", st.RetiredSuperblocks, len(retired))
	}
	if got := f.Staging().Stats().Retired; got != int64(slcRetired) {
		return fmt.Errorf("audit[sb-retired]: staging stats count %d retired superblocks but the region reports %d", got, slcRetired)
	}
	return nil
}

// auditStagingExtent checks SLC staging occupancy against the array: each
// staging superblock's write position (0 when free, the write pointer when
// open, full otherwise) must equal the per-chip block append points under
// the region's page-major striping.
func auditStagingExtent(f *ftl.FTL) error {
	geo := f.Geometry()
	arr := f.Array()
	reg := f.Staging()
	chips := int64(geo.Chips())
	spp := int64(geo.SectorsPerPage())
	cur, curPos := reg.WritePoint()
	for sb := 0; sb < reg.SuperblockCount(); sb++ {
		if reg.IsRetired(sb) {
			// Retired superblocks are frozen with whatever extent they had
			// when the failure struck (possibly mid-append); the write
			// pointer no longer describes them.
			continue
		}
		pos := reg.SectorsPerSuperblock()
		switch {
		case sb == cur:
			pos = curPos
		case reg.IsFree(sb):
			pos = 0
		}
		block, err := reg.BlockOf(sb)
		if err != nil {
			return err
		}
		fullPages := pos / spp
		partChip := fullPages % chips
		partSectors := pos % spp
		for chip := int64(0); chip < chips; chip++ {
			want := (fullPages / chips) * spp
			if chip < fullPages%chips {
				want += spp
			}
			if chip == partChip && partSectors > 0 {
				want += partSectors
			}
			if got := int64(arr.NextProgramSector(int(chip), block)); got != want {
				return fmt.Errorf("audit[staging-extent]: staging superblock %d chip %d programmed %d sectors, write pointer implies %d",
					sb, chip, got, want)
			}
		}
	}
	return nil
}

// auditCache checks every resident L2P cache entry against the mapping
// table: aligned base, same translation, map bits at least as wide as the
// entry, and pinning only under the PINNED strategy.
func auditCache(f *ftl.FTL) error {
	table := f.Table()
	strategy := f.Params().Search
	var err error
	f.Cache().ForEach(func(e l2pcache.Entry) bool {
		span := table.SectorsOf(e.Gran)
		if e.Base%span != 0 {
			err = fmt.Errorf("audit[cache-stale]: %v entry base %d not %d-aligned", e.Gran, e.Base, span)
			return false
		}
		if e.Pinned && strategy != ftl.Pinned {
			err = fmt.Errorf("audit[cache-pin]: pinned %v entry at LPA %d under the %v strategy", e.Gran, e.Base, strategy)
			return false
		}
		psn, ok := table.Get(e.Base)
		if !ok || psn != e.PSN {
			err = fmt.Errorf("audit[cache-stale]: %v entry at LPA %d caches PSN %d but the table maps it to %d (mapped=%v)",
				e.Gran, e.Base, e.PSN, psn, ok)
			return false
		}
		if e.Gran != mapping.Page && table.Bits(e.Base) < e.Gran {
			err = fmt.Errorf("audit[cache-gran]: %v entry at LPA %d is wider than the table's %v map bits",
				e.Gran, e.Base, table.Bits(e.Base))
			return false
		}
		return true
	})
	return err
}

// auditStats checks the WAF and wear accounting identities: every host
// byte is on media, in a write buffer, or was discarded by a zone reset;
// erase counters agree with per-block counts; staging GC cannot have
// erased more blocks than the array recorded.
func auditStats(f *ftl.FTL) error {
	st := f.Stats()
	cnt := f.Array().Counters()
	buffered := f.Buffers().BufferedSectors() * units.Sector
	discarded := st.ResetDiscards * units.Sector
	if st.HostWrittenBytes > cnt.BytesProgrammed+buffered+discarded {
		return fmt.Errorf("audit[stats-waf]: host wrote %d bytes > %d programmed + %d buffered + %d reset-discarded",
			st.HostWrittenBytes, cnt.BytesProgrammed, buffered, discarded)
	}
	if total := f.Array().TotalEraseCount(); cnt.Erases != total {
		return fmt.Errorf("audit[stats-erase]: erase counter %d != per-block total %d", cnt.Erases, total)
	}
	if gc := f.Staging().Stats().Erased * int64(f.Geometry().Chips()); gc > cnt.Erases {
		return fmt.Errorf("audit[stats-erase]: staging GC erased %d blocks but the array counted only %d erases", gc, cnt.Erases)
	}
	if st.MapFetchReads < st.MapFetches {
		return fmt.Errorf("audit[stats-map]: %d map fetches needed only %d flash reads", st.MapFetches, st.MapFetchReads)
	}
	return nil
}
