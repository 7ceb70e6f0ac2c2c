// Package telemetry is the virtual-time observability layer of the
// emulator. Where internal/obs attributes latency to pipeline stages at
// the granularity of single I/Os, this package answers the questions the
// paper's evaluation poses as curves: how WAF climbs as garbage collection
// kicks in, how SLC staging fills and drains, how wear spreads across
// zones. It owns three things:
//
//   - the unified device Stats snapshot (re-exported as conzone.Stats),
//     folding every subsystem's counters — FTL, L2P cache, NAND, SLC
//     staging, write buffers, the fault injector, bad-block management and
//     the power-loss model — plus point-in-time occupancy gauges;
//   - a virtual-time Sampler (sampler.go) that turns those snapshots into
//     a ring-buffered time series with zero steady-state allocations;
//   - spatial snapshots (zones.go): per-zone and per-SLC-superblock
//     heatmap tables, with JSONL/CSV/Prometheus exporters (export.go) and
//     a live net/http scrape endpoint (server.go).
package telemetry

import (
	"github.com/conzone/conzone/internal/fault"
	"github.com/conzone/conzone/internal/ftl"
	"github.com/conzone/conzone/internal/l2pcache"
	"github.com/conzone/conzone/internal/nand"
	"github.com/conzone/conzone/internal/slc"
	"github.com/conzone/conzone/internal/wbuf"
)

// Occupancy holds the point-in-time gauges of a snapshot: how full the
// volatile and SLC staging tiers are and how much slack the superblock
// pools have. Delta copies the current values instead of subtracting —
// an occupancy difference is rarely meaningful and a post-crash reading
// must not inherit pre-crash fill levels.
type Occupancy struct {
	SLCValidSectors      int64 `json:"slc_valid_sectors"`      // live staged sectors across the SLC region
	SLCFreeSuperblocks   int64 `json:"slc_free_superblocks"`   // unbound SLC staging superblocks
	SLCUsableSuperblocks int64 `json:"slc_usable_superblocks"` // staging superblocks not retired
	BufferedSectors      int64 `json:"buffered_sectors"`       // sectors sitting in volatile write buffers
	FreeSuperblocks      int64 `json:"free_superblocks"`       // normal superblocks ready for binding
	SpareRemaining       int64 `json:"spare_remaining"`        // configured spares not yet consumed by retirement
	OpenZones            int64 `json:"open_zones"`
	ActiveZones          int64 `json:"active_zones"`
	ReadOnly             bool  `json:"read_only"` // sticky degradation flag
}

// Stats is the unified counter snapshot of a ConZone device. Every field
// group is a plain value struct, so a snapshot is a single struct copy:
// taking one allocates nothing, and two snapshots subtract field-by-field
// via Delta for interval reporting.
type Stats struct {
	FTL     ftl.Stats      `json:"ftl"`
	Cache   l2pcache.Stats `json:"cache"`
	NAND    nand.Counters  `json:"nand"`
	Staging slc.Stats      `json:"staging"`
	Buffers wbuf.Stats     `json:"buffers"`
	Fault   fault.Stats    `json:"fault"` // zero with faults disabled

	WAF          float64 `json:"waf"`
	L2PMissRatio float64 `json:"l2p_miss_ratio"`

	// Power-loss counters: PowerCuts counts fired power cuts and
	// Recoveries counts recovery mounts, both surviving remounts because
	// the NAND array does. Grown bad blocks are FTL.RetiredSuperblocks:
	// every retirement records exactly one.
	PowerCuts  int64 `json:"power_cuts"`
	Recoveries int64 `json:"recoveries"`

	Occupancy Occupancy `json:"occupancy"`
}

// Delta returns the counter changes from prev to s: every counter field is
// subtracted, the two ratios are recomputed over the interval (WAF from the
// interval's byte deltas, the miss ratio from the interval's lookups), and
// the occupancy gauges are copied from s (the current reading). Interval
// reporters snapshot Stats per tick and call Delta instead of subtracting
// fields by hand.
func (s Stats) Delta(prev Stats) Stats {
	fold(&s, &prev, true)
	return s
}

// setRatios derives the two ratio gauges from the snapshot's own counters:
// WAF is NAND bytes programmed over host bytes written, the miss ratio is
// misses over lookups, each 0 over an empty denominator. Collect, Add and
// Delta all end here, so a device reading, a population sum and an
// interval share one rule.
func (s *Stats) setRatios() {
	s.WAF, s.L2PMissRatio = 0, 0
	if s.FTL.HostWrittenBytes > 0 {
		s.WAF = float64(s.NAND.BytesProgrammed) / float64(s.FTL.HostWrittenBytes)
	}
	if lookups := s.Cache.Hits + s.Cache.Misses; lookups > 0 {
		s.L2PMissRatio = float64(s.Cache.Misses) / float64(lookups)
	}
}

// Collect assembles the unified snapshot from a live FTL. It performs no
// heap allocations (pinned by TestCollectZeroAlloc), so the virtual-time
// sampler may call it from the I/O hot path.
func Collect(f *ftl.FTL) Stats {
	arr := f.Array()
	staging := f.Staging()
	zones := f.Zones()
	s := Stats{
		FTL:     f.Stats(),
		Cache:   f.Cache().Stats(),
		NAND:    arr.Counters(),
		Staging: staging.Stats(),
		Buffers: f.Buffers().Stats(),

		PowerCuts:  arr.PowerCuts(),
		Recoveries: arr.Recoveries(),

		Occupancy: Occupancy{
			SLCValidSectors:      staging.TotalValid(),
			SLCFreeSuperblocks:   int64(staging.FreeSuperblocks()),
			SLCUsableSuperblocks: int64(staging.UsableSuperblocks()),
			BufferedSectors:      f.Buffers().BufferedSectors(),
			FreeSuperblocks:      int64(f.FreeSuperblockCount()),
			SpareRemaining:       int64(f.SpareRemaining()),
			OpenZones:            int64(zones.OpenCount()),
			ActiveZones:          int64(zones.ActiveCount()),
			ReadOnly:             f.ReadOnly(),
		},
	}
	if inj := f.FaultInjector(); inj != nil {
		s.Fault = inj.Stats()
	}
	s.setRatios()
	return s
}
