package ftl

import (
	"fmt"

	"github.com/conzone/conzone/internal/mapping"
	"github.com/conzone/conzone/internal/nand"
)

// This file exposes read-only views of the FTL's internal bookkeeping for
// the cross-subsystem invariant auditor (internal/check), plus the two
// corruption hooks (DebugRetireSB, DebugAddBadBlock) the auditor's tests use
// to prove the bad-block invariants fire. Production code never calls them.
// They are exported methods on the live FTL because check.Audit, unlike
// check.AuditHost (which audits a host.DebugState value a test can corrupt),
// cross-reads a live FTL — mapping table, zone manager, write buffers, SLC
// region and media through the accessors below — and check's tests sit
// outside this package, where an export_test.go cannot reach.

// AggLimit returns the first staged PSN: PSNs below it are reserved
// (zone-linear) placement, PSNs at or above it index the SLC staging region.
func (f *FTL) AggLimit() mapping.PSN { return f.aggLimit }

// HeadSectors returns the sectors a zone's bound normal superblock holds;
// zone offsets beyond it form the pow2 alignment tail.
func (f *FTL) HeadSectors() int64 { return f.sbSectors }

// ResolvePSN translates a PSN to its physical address, exactly as the read
// path does.
func (f *FTL) ResolvePSN(psn mapping.PSN) (nand.Addr, error) { return f.psnLoc(psn) }

// FreeSBList returns a copy of the free normal-superblock pool.
func (f *FTL) FreeSBList() []int { return append([]int(nil), f.freeSBs...) }

// FreeSuperblockCount returns the size of the free normal-superblock pool
// without copying it (telemetry hot path).
func (f *FTL) FreeSuperblockCount() int { return len(f.freeSBs) }

// SpareRemaining returns how many of the configured spare superblocks are
// still unconsumed by retirement. Retirements beyond the reserve (the
// read-only degradation case) clamp to zero.
func (f *FTL) SpareRemaining() int {
	left := int64(f.params.SpareSuperblocks) - f.stats.RetiredSuperblocks
	if left < 0 {
		left = 0
	}
	return int(left)
}

// ZoneCounts returns one zone's media-placement summary without allocating:
// the bound normal superblock (-1 when unbound), how many of its sectors live
// in the SLC staging region, and how many of those a sequential zone holds
// below the head capacity — the partial unit awaiting a combine (Fig. 3 ③),
// or with combining off every staged partial. Both are read from the zone's
// mapping entries. The per-zone heatmap (internal/telemetry) is the caller.
func (f *FTL) ZoneCounts(zone int) (sb int, staged, pend int64, err error) {
	if zone < 0 || zone >= f.numZones {
		return -1, 0, 0, fmt.Errorf("ftl: zone %d out of range [0,%d)", zone, f.numZones)
	}
	zs := &f.zstate[zone]
	if !f.table.Allocated(zone) {
		return zs.sb, 0, 0, nil
	}
	_ = f.stagedOf(zone, func(off, _ int64) error { // fn never fails, so neither does the walk
		staged++
		if off < f.sbSectors && !zs.conv {
			pend++
		}
		return nil
	})
	return zs.sb, staged, pend, nil
}

// SBEraseMean returns the mean per-chip erase count of one normal
// superblock, the per-superblock wear figure Wear reports, without
// building the whole report.
func (f *FTL) SBEraseMean(sb int) float64 {
	if sb < 0 || sb >= f.geo.NormalBlocks() {
		return 0
	}
	return f.eraseMean(f.geo.FirstNormalBlock() + sb)
}

// SLCEraseMean returns the mean per-chip erase count of one SLC staging
// superblock.
func (f *FTL) SLCEraseMean(sb int) float64 {
	if sb < 0 || sb >= f.geo.SLCBlocks {
		return 0
	}
	return f.eraseMean(sb)
}

// eraseMean returns the mean erase count of per-chip block index block.
func (f *FTL) eraseMean(block int) float64 {
	var sum int64
	for c := 0; c < f.geo.Chips(); c++ {
		sum += f.arr.EraseCount(c, block)
	}
	return float64(sum) / float64(f.geo.Chips())
}

// DebugRetireSB is a corruption hook: it records superblock sb as retired
// (with its bad-block entry) without removing it from the free list or any
// zone binding, desynchronizing the grown-bad bookkeeping on purpose.
func (f *FTL) DebugRetireSB(sb int, bb BadBlock) { f.retireSB(sb, bb) }

// DebugAddBadBlock is a corruption hook: it appends a bad-block record with
// no matching retired superblock.
func (f *FTL) DebugAddBadBlock(bb BadBlock) { f.badBlocks = append(f.badBlocks, bb) }

// ZoneSB returns the normal superblock bound to the zone, -1 when it is
// unbound or the zone does not exist: the zone bookkeeping the auditor needs
// that no other layer holds (which sectors are staged, the mapping holds).
func (f *FTL) ZoneSB(zone int) int {
	if zone < 0 || zone >= f.numZones {
		return -1
	}
	return f.zstate[zone].sb
}
