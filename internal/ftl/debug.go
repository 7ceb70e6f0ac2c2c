package ftl

import (
	"fmt"
	"sort"

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

// GrownBadBlocks returns the size of the grown-bad block table without
// copying it (telemetry hot path).
func (f *FTL) GrownBadBlocks() int { return len(f.badBlocks) }

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
// the bound normal superblock (-1 when unbound), how many SLC staging
// sectors the zone owns, how many of those are still valid, and how many
// belong to the pending partially-programmed unit. The per-zone heatmap
// collector (internal/telemetry) is the intended caller.
func (f *FTL) ZoneCounts(zone int) (sb int, staged, validStaged, pend int64, err error) {
	if zone < 0 || zone >= f.numZones {
		return -1, 0, 0, 0, fmt.Errorf("ftl: zone %d out of range [0,%d)", zone, f.numZones)
	}
	zs := &f.zstate[zone]
	for g := range zs.staged {
		staged++
		if f.staging.IsValid(g) {
			validStaged++
		}
	}
	return zs.sb, staged, validStaged, int64(len(zs.pend)), nil
}

// SBEraseMean returns the mean per-chip erase count of one normal
// superblock, the per-superblock wear figure Wear reports, without
// building the whole report.
func (f *FTL) SBEraseMean(sb int) float64 {
	if sb < 0 || sb >= f.geo.NormalBlocks() {
		return 0
	}
	chips := f.geo.Chips()
	block := f.geo.FirstNormalBlock() + sb
	var sum int64
	for c := 0; c < chips; c++ {
		sum += f.arr.EraseCount(c, block)
	}
	return float64(sum) / float64(chips)
}

// SLCEraseMean returns the mean per-chip erase count of one SLC staging
// superblock.
func (f *FTL) SLCEraseMean(sb int) float64 {
	if sb < 0 || sb >= f.geo.SLCBlocks {
		return 0
	}
	chips := f.geo.Chips()
	var sum int64
	for c := 0; c < chips; c++ {
		sum += f.arr.EraseCount(c, sb)
	}
	return float64(sum) / float64(chips)
}

// DebugRetireSB is a corruption hook: it records superblock sb as retired
// (with its bad-block entry) without removing it from the free list or any
// zone binding, desynchronizing the grown-bad bookkeeping on purpose.
func (f *FTL) DebugRetireSB(sb int, bb BadBlock) { f.retireSB(sb, bb) }

// DebugAddBadBlock is a corruption hook: it appends a bad-block record with
// no matching retired superblock.
func (f *FTL) DebugAddBadBlock(bb BadBlock) { f.badBlocks = append(f.badBlocks, bb) }

// ZoneDebug is a read-only snapshot of one zone's FTL bookkeeping.
type ZoneDebug struct {
	SB           int  // bound normal superblock id, -1 when unbound
	Conventional bool //
	TailBase     int64
	TailSet      bool
	TailContig   bool
	PendOffsets  []int64 // zone-relative offsets of the pending partial unit
	PendIndices  []int64 // their staging linear indices, same order
	Staged       []int64 // staging indices owned by the zone, ascending
}

// ZoneDebugInfo captures the zone's internal state for auditing.
func (f *FTL) ZoneDebugInfo(zone int) (ZoneDebug, error) {
	if zone < 0 || zone >= f.numZones {
		return ZoneDebug{}, fmt.Errorf("ftl: zone %d out of range [0,%d)", zone, f.numZones)
	}
	zs := &f.zstate[zone]
	d := ZoneDebug{
		SB:           zs.sb,
		Conventional: zs.conv,
		TailBase:     zs.tailBase,
		TailSet:      zs.tailSet,
		TailContig:   zs.tailContig,
	}
	for _, p := range zs.pend {
		d.PendOffsets = append(d.PendOffsets, p.off)
		d.PendIndices = append(d.PendIndices, p.gidx)
	}
	for g := range zs.staged {
		d.Staged = append(d.Staged, g)
	}
	sort.Slice(d.Staged, func(i, j int) bool { return d.Staged[i] < d.Staged[j] })
	return d, nil
}
