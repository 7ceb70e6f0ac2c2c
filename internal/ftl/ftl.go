// Package ftl is the heart of the ConZone emulator: the flash translation
// layer of a consumer-grade zoned flash storage device. It composes the
// substrates — NAND array, zone manager, write buffers, SLC staging region,
// hybrid mapping table and L2P cache — into the read, write and erase paths
// of the paper's Figs. 2-5.
//
// # Physical sector numbers
//
// The FTL translates logical sectors (LPAs) to abstract physical sector
// numbers (PSNs):
//
//   - PSN in [0, numZones*zoneCap): "reserved" placement. PSN = zone *
//     zoneCap + offset. Offsets below the superblock capacity live in the
//     zone's bound normal superblock, striped across chips one program unit
//     at a time; offsets beyond it (the pow2 alignment tail, paper §III-E)
//     live in a contiguous run of the SLC staging region. Because PSN equals
//     zone-base plus offset, physical contiguity is PSN arithmetic, and
//     mapping entries over these runs can aggregate to chunk or zone level.
//   - PSN >= aggLimit: staged placement. PSN = aggLimit + staging linear
//     index. These sectors sit wherever the SLC write pointer was, are
//     tracked by the staging region's validity maps, and never aggregate.
package ftl

import (
	"errors"
	"fmt"
	"math/bits"

	"github.com/conzone/conzone/internal/fault"
	"github.com/conzone/conzone/internal/l2pcache"
	"github.com/conzone/conzone/internal/mapping"
	"github.com/conzone/conzone/internal/nand"
	"github.com/conzone/conzone/internal/obs"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/slc"
	"github.com/conzone/conzone/internal/units"
	"github.com/conzone/conzone/internal/wbuf"
	"github.com/conzone/conzone/internal/zns"
)

// Strategy selects how the granularity of a missing L2P entry is discovered
// before fetching it from flash (paper §III-C and Fig. 8).
type Strategy int

const (
	// Bitmap keeps an SRAM bitmap of all map bits: one flash fetch per
	// miss, at a ~0.006% DRAM capacity overhead (performance-optimised).
	Bitmap Strategy = iota
	// Multiple probes zone, then chunk, then page entries from flash,
	// costing up to three fetches per miss (capacity-optimised).
	Multiple
	// Pinned keeps aggregated entries pinned in the L2P cache from the
	// moment they are created, so misses concern page entries only.
	Pinned
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Bitmap:
		return "BITMAP"
	case Multiple:
		return "MULTIPLE"
	case Pinned:
		return "PINNED"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Params configures the FTL on top of a NAND geometry.
type Params struct {
	NumWriteBuffers int   // shared volatile write buffers (paper: 2)
	L2PCacheBytes   int64 // L2P cache budget (paper: 12 KiB)
	L2PEntryBytes   int64 // bytes per cache entry (paper: 4)
	ChunkSectors    int64 // sectors per aggregation chunk (1024 = 4 MiB)
	Search          Strategy
	AggregateZones  bool // allow zone-level aggregation (chunk always on)
	AlignZones      bool // pow2-align zone capacity, patching the tail to SLC
	MaxOpenZones    int  // 0 = unlimited
	MaxActiveZones  int  // 0 = unlimited

	// DisableAggregation switches the FTL to pure page mapping: map bits
	// never widen, so the L2P cache holds only page entries. This is the
	// "page mapping" arm of the paper's Fig. 7 case study.
	DisableAggregation bool

	// DisableCombine turns off the Fig. 3 ③ path: partial-unit data
	// staged to SLC is never read back and merged into the normal area;
	// it stays in SLC until its zone is reset or GC moves it. Used by the
	// combine ablation bench.
	DisableCombine bool

	// ConventionalZones makes the first N zones conventional (paper
	// §III-E): the host may update them in place, as F2FS metadata
	// requires. Their data lives page-mapped in the SLC region — isolated
	// from the sequential zones' reserved superblocks — and is reclaimed
	// by the SLC garbage collector.
	ConventionalZones int

	// L2PLogEntries enables the L2P-log persistence model (paper §III-E):
	// mapping-table updates accumulate in a volatile log, and once this
	// many are pending the log is flushed to the map region, blocking the
	// host request that tripped it. 0 disables the model (the paper's own
	// artifact defers persistence to future work).
	L2PLogEntries int64

	// SpareSuperblocks reserves normal superblocks for bad-block
	// replacement instead of exposing them as zones: the zone count drops
	// by this many, and the reserve feeds program-fail relocation and
	// erase-fail retirement. 0 (the default) keeps the historical zone
	// count — the device then degrades to read-only on the first
	// unrecoverable failure.
	SpareSuperblocks int

	// Faults enables the deterministic NAND fault model beneath the array
	// (internal/fault). nil — the default — means the media never fails
	// and the fault bookkeeping stays entirely off the I/O paths.
	Faults *fault.Config

	// PreWearErases ages every NAND block by this many erase cycles at
	// construction, modelling a used device (fleet population studies vary
	// it per device). Wear reports start from the aged baseline and a
	// wear-coupled fault model fails more often from the first operation.
	// 0 — the default — builds a factory-fresh device.
	PreWearErases int64
}

// Stats aggregates the FTL-level counters on top of the substrate stats.
type Stats struct {
	HostReadBytes    int64
	HostWrittenBytes int64
	DirectPUs        int64 // write-buffer flushes programmed straight to normal blocks (Fig. 3 ①)
	StagedSectors    int64 // sectors detoured through SLC (Fig. 3 ②)
	Combines         int64 // SLC read-back + merged PU programs (Fig. 3 ③)
	PrematureFlushes int64 // buffer evictions due to zone conflicts
	MapFetches       int64 // L2P entry fetches from flash
	MapFetchReads    int64 // flash reads those fetches needed (≥ MapFetches)
	ZoneResets       int64
	ZoneFinishes     int64 // zone finish commands that committed (pad-out included)
	PadSectors       int64 // zero-fill sectors programmed by finish pad-outs (WAF overhead, not host data)
	ResetDiscards    int64 // buffered sectors a zone reset threw away unflushed
	TailSectors      int64 // alignment-tail sectors written to reserved SLC
	BufferReads      int64 // read sectors served from the volatile write buffer
	L2PLogFlushes    int64 // L2P log persistence events (blocking)
	L2PLogPages      int64 // map-region pages those flushes programmed

	// Bad-block-management counters, all zero with faults disabled. The
	// NAND-level fault counters live in the injector (fault.Stats).
	Relocations        int64 // program-fail recoveries: superblock re-bound to a spare
	RelocatedSectors   int64 // sectors copied old-superblock -> spare during recoveries
	RetiredSuperblocks int64 // normal superblocks retired (grown bad)
	LostAckSectors     int64 // acknowledged sectors a failed flush could not restore (must stay 0)
}

// zoneState is what the FTL knows of a zone that no other layer holds. Which
// of its sectors sit in the SLC staging region, and which of those wait for
// a combine (Fig. 3 ③), the zone's mapping entries say (stagedOf,
// writeHeadSegment).
type zoneState struct {
	sb   int  // bound normal superblock, -1 when unbound
	conv bool // conventional zone: in-place updates, SLC-resident

	// Alignment-tail bookkeeping (paper §III-E). tailBase is the staging
	// linear index where offset sbSectors landed; the tail keeps
	// zone-linear PSNs while tailContig holds.
	tailBase   int64
	tailSet    bool
	tailContig bool
}

// FTL is the ConZone flash translation layer.
//
// Re-entrancy: the FTL is strictly single-entrant. Every entry point
// (Write, Read, Append, Flush, ResetZone, ...) mutates shared bookkeeping —
// zone state, write buffers, the mapping table, the virtual-time resources —
// with no internal locking, and none of them calls back into another entry
// point except through the documented internal helpers. Exactly one caller
// may be inside the FTL at a time. The host-interface layer (internal/host)
// is the intended serialization point: its arbiter dispatches queued
// commands one at a time in deterministic virtual-time order, and the public
// Device wraps both behind a single mutex.
type FTL struct {
	arr     *nand.Array
	zones   *zns.Manager
	table   *mapping.Table
	cache   *l2pcache.Cache
	bufs    *wbuf.Manager
	staging *slc.Region
	params  Params

	geo        nand.Geometry
	puSectors  int64 // sectors per program unit
	sbSectors  int64 // data sectors per normal superblock
	zoneCap    int64 // logical sectors per zone
	numZones   int
	aggLimit   mapping.PSN
	spp        int // sectors per page
	pagesPerPU int

	// Hot-path address-translation acceleration, derived once at build time.
	// The read path resolves every sector through psnLoc/headLoc, and 64-bit
	// divisions dominate that math on modern cores — a superblock-offset
	// lookup table and shift/mask fast paths for pow2 zone capacities remove
	// all of them from the steady state.
	firstNormal int         // geo.FirstNormalBlock()
	headTab     []headEntry // head-region zone offset -> (chip, page, sector)
	zoneShift   uint        // psn>>zoneShift == psn/zoneCap when zonePow2
	zoneMask    int64       // psn&zoneMask == psn%zoneCap when zonePow2
	zonePow2    bool
	mapShift    uint // lpa>>mapShift == entry group when mapPow2
	mapChipMask int64
	mapPow2     bool
	ppaBPC      int64 // inline PPAOf multipliers (no geometry copy per call)
	ppaPPB      int64
	ppaSPP      int64

	zstate  []zoneState
	freeSBs []int // normal superblock ids ready for binding

	// Bad-block management state. All empty/false until the fault model
	// produces a failure, so none of it costs anything in steady state.
	inj        *fault.Injector // nil with faults disabled
	retiredSBs []int           // normal superblock ids frozen out of service
	badBlocks  []BadBlock      // grown-bad per-chip blocks, discovery order
	readOnly   bool            // sticky: spares exhausted, writes rejected

	// bufFlush holds the release times of each buffer's most recent
	// flushes, one fixed ring per buffer. A write waits until fewer than
	// flushPipelineDepth flushes of its buffer are still draining — the
	// controller's internal flush FIFO (about one superpage) gives one
	// flush of slack beyond the in-flight one, and this is what makes
	// buffered write bandwidth converge to the media program rate without
	// idling the chips.
	bufFlush []flushRing

	// Reused scratch storage for the single-entrant write path (the FTL's
	// re-entrancy contract above makes plain fields safe): per-call slices
	// here would otherwise dominate steady-state allocations.
	wsScratch  []slc.Write   // appendStaged builds
	combineIdx []int64       // combine: the unit's staged indices
	combineBuf [][]byte      // combine: the unit's sector views, nil where staged
	readRuns   nand.PageRuns // ReadInto: per-page media read batching
	padScratch [][]byte      // FinishZone: all-nil payload views for pad-out

	l2pLogPending int64 // mapping updates awaiting an L2P-log flush
	l2pLogChip    int   // round-robin chip for log programs

	compatDone []sim.Time // benchcompat.go: results StageRead remembered,
	compatErr  []error    // emitted and cleared by DrainStagedReads

	stats Stats
}

// SetRecorder attaches a lifecycle recorder to the device: the NAND array
// holds it, and the FTL and the SLC staging region record through the array.
// Passing nil disables observation everywhere.
func (f *FTL) SetRecorder(r *obs.Recorder) { f.arr.SetRecorder(r) }

// Recorder returns the attached lifecycle recorder (nil when disabled).
func (f *FTL) Recorder() *obs.Recorder { return f.arr.Recorder() }

// Telemetry snapshots the recorder's aggregates plus per-resource usage,
// without the flight-recorder ring (Recorder().Events() is that). With
// observation disabled it returns a zero snapshot.
func (f *FTL) Telemetry() obs.Telemetry {
	rec := f.Recorder()
	t := rec.Snapshot()
	if rec != nil {
		t.Resources = f.arr.Engine().Usage()
	}
	return t
}

// record emits one FTL-level lifecycle span (no-op when disabled).
func (f *FTL) record(stage obs.Stage, cause obs.Cause, begin, end sim.Time, zone int, lba, n int64) {
	rec := f.Recorder()
	if rec == nil {
		return
	}
	rec.Record(obs.Event{
		Stage: stage, Cause: cause, Begin: begin, End: end,
		Zone: int32(zone), Actor: -1, LBA: lba, N: n,
	})
}

// causeOf maps a write-buffer drain reason to the lifecycle cause that
// qualifies the resulting flush spans.
func causeOf(r wbuf.Reason) obs.Cause {
	switch r {
	case wbuf.ReasonEvict:
		return obs.CauseZoneConflict
	case wbuf.ReasonFull:
		return obs.CauseBufferFull
	case wbuf.ReasonTake:
		return obs.CauseHostFlush
	}
	return obs.CauseNone
}

// New builds the FTL and all its substrates over a fresh NAND array.
func New(geo nand.Geometry, lat nand.LatencyTable, p Params) (*FTL, error) {
	if err := validateParams(geo, p); err != nil {
		return nil, err
	}
	arr, err := nand.NewArray(geo, lat, sim.NewEngine())
	if err != nil {
		return nil, err
	}
	// Pre-aging applies to the freshly built media only: NewWithArray also
	// serves the recovery path, where the surviving array must not be aged
	// again on every remount.
	arr.PreWear(p.PreWearErases)
	return NewWithArray(arr, p)
}

// NewWithArray builds the FTL over an existing array (tests use this to
// inspect media state).
func NewWithArray(arr *nand.Array, p Params) (*FTL, error) {
	geo := arr.Geometry()
	if err := validateParams(geo, p); err != nil {
		return nil, err
	}
	f := &FTL{
		arr:        arr,
		params:     p,
		geo:        geo,
		puSectors:  geo.ProgramUnit / units.Sector,
		sbSectors:  geo.SuperblockBytes() / units.Sector,
		numZones:   geo.NormalBlocks() - p.SpareSuperblocks,
		spp:        geo.SectorsPerPage(),
		pagesPerPU: geo.PagesPerPU(),
	}
	var err error
	if p.Faults != nil {
		if f.inj, err = fault.New(*p.Faults); err != nil {
			return nil, err
		}
		arr.SetFaultInjector(f.inj)
	}
	f.zoneCap = zoneCapOf(geo, p)
	if f.zoneCap%p.ChunkSectors != 0 {
		return nil, fmt.Errorf("ftl: zone capacity %d sectors not a multiple of chunk %d; "+
			"use AlignZones or a pow2 geometry", f.zoneCap, p.ChunkSectors)
	}
	f.aggLimit = mapping.PSN(int64(f.numZones) * f.zoneCap)

	f.zones, err = zns.NewManager(zns.Config{
		NumZones:     f.numZones,
		ZoneSize:     f.zoneCap,
		ZoneCapacity: f.zoneCap,
		MaxOpen:      p.MaxOpenZones,
		MaxActive:    p.MaxActiveZones,
		Conventional: p.ConventionalZones,
	})
	if err != nil {
		return nil, err
	}
	f.table, err = mapping.NewTable(mapping.Config{
		TotalSectors: int64(f.numZones) * f.zoneCap,
		ChunkSectors: p.ChunkSectors,
		ZoneSectors:  f.zoneCap,
		AggLimit:     f.aggLimit,
	})
	if err != nil {
		return nil, err
	}
	f.cache, err = l2pcache.New(p.L2PCacheBytes, p.L2PEntryBytes, f.table)
	if err != nil {
		return nil, err
	}
	f.bufs, err = wbuf.New(p.NumWriteBuffers, geo.SuperpageBytes()/units.Sector)
	if err != nil {
		return nil, err
	}
	slcBlocks := make([]int, geo.SLCBlocks)
	for i := range slcBlocks {
		slcBlocks[i] = i
	}
	f.staging, err = slc.NewRegion(arr, slcBlocks)
	if err != nil {
		return nil, err
	}
	f.zstate = make([]zoneState, f.numZones)
	f.freeSBs = make([]int, 0, geo.NormalBlocks())
	for i := range f.zstate {
		f.zstate[i] = zoneState{sb: -1, conv: i < p.ConventionalZones}
		// Conventional zones never bind a reserved superblock; their
		// blocks stay in the free pool (usable as future spares).
		f.freeSBs = append(f.freeSBs, i)
	}
	// Reserved spares join the free pool behind the per-zone superblocks:
	// they are drawn on only when a failure retires a block ahead of them.
	for i := f.numZones; i < geo.NormalBlocks(); i++ {
		f.freeSBs = append(f.freeSBs, i)
	}
	if p.ConventionalZones > 0 {
		need := int64(p.ConventionalZones) * f.zoneCap
		have := f.staging.TotalSectors() - 2*f.staging.SectorsPerSuperblock()
		if need > have {
			return nil, fmt.Errorf("ftl: %d conventional zones need %d SLC sectors, region has %d usable",
				p.ConventionalZones, need, have)
		}
	}
	f.bufFlush = make([]flushRing, p.NumWriteBuffers)
	f.combineBuf = make([][]byte, f.puSectors)
	f.initAddrFastPaths()
	return f, nil
}

// headEntry is one precomputed head-region translation: the chip, in-block
// page and in-page sector a superblock offset stripes to (see headLoc).
type headEntry struct {
	chip, page, sector uint16
}

// initAddrFastPaths precomputes the translation table and pow2 shortcuts
// the per-sector read path uses instead of 64-bit division.
func (f *FTL) initAddrFastPaths() {
	f.firstNormal = f.geo.FirstNormalBlock()
	chips := int64(f.geo.Chips())
	// Program unit k stripes to chip k mod chips, unit row k div chips. The
	// table is built per device, a unit at a time with running page and
	// sector counters: dividing per entry made it the largest single cost
	// of building a small device.
	f.headTab = make([]headEntry, 0, f.sbSectors)
	for k := int64(0); int64(len(f.headTab)) < f.sbSectors; k++ {
		e := headEntry{chip: uint16(k % chips), page: uint16((k / chips) * int64(f.pagesPerPU))}
		for rem := int64(0); rem < f.puSectors && int64(len(f.headTab)) < f.sbSectors; rem++ {
			f.headTab = append(f.headTab, e)
			if e.sector++; int(e.sector) == f.spp {
				e.sector, e.page = 0, e.page+1
			}
		}
	}
	if f.zoneCap > 0 && f.zoneCap&(f.zoneCap-1) == 0 {
		f.zonePow2 = true
		f.zoneMask = f.zoneCap - 1
		f.zoneShift = uint(bits.TrailingZeros64(uint64(f.zoneCap)))
	}
	eps := units.Sector / f.params.L2PEntryBytes
	if eps <= 0 {
		eps = 1
	}
	if eps&(eps-1) == 0 && chips&(chips-1) == 0 {
		f.mapPow2 = true
		f.mapShift = uint(bits.TrailingZeros64(uint64(eps)))
		f.mapChipMask = chips - 1
	}
	f.ppaBPC = int64(f.geo.BlocksPerChip)
	f.ppaSPP = int64(f.geo.PPAOf(nand.Addr{Page: 1}))
	f.ppaPPB = int64(f.geo.PPAOf(nand.Addr{Block: 1})) / f.ppaSPP
}

// ppaOf is geo.PPAOf without the geometry-struct copy per call.
func (f *FTL) ppaOf(a nand.Addr) nand.PPA {
	return nand.PPA(((int64(a.Chip)*f.ppaBPC+int64(a.Block))*f.ppaPPB+int64(a.Page))*f.ppaSPP + int64(a.Sector))
}

func validateParams(geo nand.Geometry, p Params) error {
	if err := geo.Validate(); err != nil {
		return err
	}
	switch {
	case p.NumWriteBuffers <= 0:
		return fmt.Errorf("ftl: NumWriteBuffers must be positive, got %d", p.NumWriteBuffers)
	case p.L2PCacheBytes <= 0 || p.L2PEntryBytes <= 0:
		return fmt.Errorf("ftl: L2P cache (%d) and entry (%d) bytes must be positive",
			p.L2PCacheBytes, p.L2PEntryBytes)
	case p.ChunkSectors <= 0:
		return fmt.Errorf("ftl: ChunkSectors must be positive, got %d", p.ChunkSectors)
	case p.Search != Bitmap && p.Search != Multiple && p.Search != Pinned:
		return fmt.Errorf("ftl: unknown search strategy %d", p.Search)
	case geo.SLCBlocks < 2:
		return fmt.Errorf("ftl: need at least 2 SLC blocks for staging, got %d", geo.SLCBlocks)
	case p.ConventionalZones < 0:
		return fmt.Errorf("ftl: negative ConventionalZones %d", p.ConventionalZones)
	case p.L2PLogEntries < 0:
		return fmt.Errorf("ftl: negative L2PLogEntries %d", p.L2PLogEntries)
	case p.SpareSuperblocks < 0:
		return fmt.Errorf("ftl: negative SpareSuperblocks %d", p.SpareSuperblocks)
	case p.SpareSuperblocks >= geo.NormalBlocks():
		return fmt.Errorf("ftl: %d spare superblocks leave no zones of %d normal blocks",
			p.SpareSuperblocks, geo.NormalBlocks())
	case p.PreWearErases < 0:
		return fmt.Errorf("ftl: negative PreWearErases %d", p.PreWearErases)
	}
	if p.Faults != nil {
		if err := p.Faults.Validate(); err != nil {
			return err
		}
	}
	// Mapping entries hold a PSN in 32 bits: the zone-linear space and the
	// staging space behind it must both fit, or no write could be mapped.
	linear := int64(geo.NormalBlocks()-p.SpareSuperblocks) * zoneCapOf(geo, p)
	staged := int64(geo.SLCBlocks) * int64(geo.Chips()) * int64(geo.SLCPagesPerBlock) * int64(geo.SectorsPerPage())
	if mapping.PSN(linear+staged) > mapping.MaxPSN+1 {
		return fmt.Errorf("ftl: %d zone-linear + %d staging sectors: %w", linear, staged, mapping.ErrPSNSpace)
	}
	return nil
}

// zoneCapOf returns a zone's logical sectors: a superblock's, rounded up to
// a power of two when AlignZones patches the tail to SLC (paper §III-E).
func zoneCapOf(geo nand.Geometry, p Params) int64 {
	n := geo.SuperblockBytes() / units.Sector
	if p.AlignZones {
		n = units.NextPow2(n)
	}
	return n
}

// Geometry returns the underlying NAND geometry.
func (f *FTL) Geometry() nand.Geometry { return f.geo }

// Array exposes the NAND array (diagnostics and tests).
func (f *FTL) Array() *nand.Array { return f.arr }

// Zones exposes the zone manager for reporting.
func (f *FTL) Zones() *zns.Manager { return f.zones }

// Cache exposes the L2P cache for statistics.
func (f *FTL) Cache() *l2pcache.Cache { return f.cache }

// Staging exposes the SLC staging region for statistics.
func (f *FTL) Staging() *slc.Region { return f.staging }

// Buffers exposes the write-buffer manager for statistics.
func (f *FTL) Buffers() *wbuf.Manager { return f.bufs }

// Table exposes the mapping table (tests and tools).
func (f *FTL) Table() *mapping.Table { return f.table }

// Params returns the configuration in use.
func (f *FTL) Params() Params { return f.params }

// NumZones returns the zone count.
func (f *FTL) NumZones() int { return f.numZones }

// ZoneCapSectors returns the logical sectors per zone.
func (f *FTL) ZoneCapSectors() int64 { return f.zoneCap }

// TotalSectors returns the logical capacity in sectors.
func (f *FTL) TotalSectors() int64 { return int64(f.numZones) * f.zoneCap }

// Stats returns a snapshot of FTL-level counters.
func (f *FTL) Stats() Stats { return f.stats }

// ReadOnly reports whether the device has degraded to read-only operation
// (spare superblocks exhausted or the SLC staging region unable to sustain
// writes). The transition is sticky.
func (f *FTL) ReadOnly() bool { return f.readOnly }

// FaultInjector returns the attached fault injector (nil when faults are
// disabled).
func (f *FTL) FaultInjector() *fault.Injector { return f.inj }

// WAF returns the write amplification factor observed so far: NAND bytes
// programmed over host bytes written.
func (f *FTL) WAF() float64 {
	if f.stats.HostWrittenBytes == 0 {
		return 0
	}
	return float64(f.arr.Counters().BytesProgrammed) / float64(f.stats.HostWrittenBytes)
}

// flushPipelineDepth is how many flushes of one buffer may be draining
// before a new write to that buffer must wait (see bufFlush).
const flushPipelineDepth = 3

// flushRing is one buffer's record of its flushPipelineDepth most recent
// flush release times — a fixed ring, so noting a flush never allocates.
// Slot i%depth holds the i-th flush; with n flushes recorded, the oldest
// retained one (the (n-depth)-th) therefore sits at slot n%depth.
type flushRing struct {
	t [flushPipelineDepth]sim.Time
	n int
}

// waitFlushSlot returns the earliest time a new flush of buffer bi can be
// accepted, given the pipeline depth.
func (f *FTL) waitFlushSlot(bi int, at sim.Time) sim.Time {
	r := &f.bufFlush[bi]
	if r.n >= flushPipelineDepth {
		if w := r.t[r.n%flushPipelineDepth]; w > at {
			at = w
		}
	}
	return at
}

// noteFlush records a flush's release time for buffer bi.
func (f *FTL) noteFlush(bi int, rel sim.Time) {
	r := &f.bufFlush[bi]
	r.t[r.n%flushPipelineDepth] = rel
	r.n++
}

// noteMapUpdates accumulates mapping-table changes toward an L2P-log
// flush; a no-op when the persistence model is disabled.
func (f *FTL) noteMapUpdates(n int64) {
	if f.params.L2PLogEntries > 0 {
		f.l2pLogPending += n
	}
}

// maybeFlushL2PLog persists the accumulated log once it exceeds the
// configured capacity, returning when the host may proceed (the paper:
// "the flushing back of the L2P log may block host requests").
func (f *FTL) maybeFlushL2PLog(at sim.Time) (sim.Time, error) {
	if f.params.L2PLogEntries <= 0 || f.l2pLogPending < f.params.L2PLogEntries {
		return at, nil
	}
	entriesPerPage := f.geo.PageSize / f.params.L2PEntryBytes
	if entriesPerPage <= 0 {
		entriesPerPage = 1
	}
	pages := units.CeilDiv(f.l2pLogPending, entriesPerPage)
	done := at
	for i := int64(0); i < pages; i++ {
		d, err := f.arr.ChargeMapProgram(at, f.l2pLogChip)
		if err != nil {
			return at, err
		}
		f.l2pLogChip = (f.l2pLogChip + 1) % f.geo.Chips()
		if d > done {
			done = d
		}
	}
	f.l2pLogPending = 0
	f.stats.L2PLogFlushes++
	f.stats.L2PLogPages += pages
	f.record(obs.StageL2PLogFlush, obs.CauseNone, at, done, -1, -1, pages)
	return done, nil
}

// errZoneUnbound is an internal signal; it should never escape the FTL.
var errZoneUnbound = errors.New("ftl: zone has no bound superblock")

// bindSB attaches a free normal superblock to the zone. An empty pool means
// retirement consumed the zone's superblock and every spare: the device
// degrades to read-only.
func (f *FTL) bindSB(zone int) error {
	if f.zstate[zone].sb >= 0 {
		return nil
	}
	if len(f.freeSBs) == 0 {
		f.readOnly = true
		return fmt.Errorf("ftl: no free superblock for zone %d: %w", zone, fault.ErrReadOnly)
	}
	f.zstate[zone].sb = f.freeSBs[0]
	f.freeSBs = f.freeSBs[1:]
	return nil
}

// headLoc translates a head-region zone offset (off < sbSectors) to its
// physical address inside the zone's bound superblock. Program units
// stripe across chips: PU k lives on chip k mod chips.
func (f *FTL) headLoc(zone int, off int64) (nand.Addr, error) {
	sb := f.zstate[zone].sb
	if sb < 0 {
		return nand.Addr{}, errZoneUnbound
	}
	e := f.headTab[off]
	return nand.Addr{
		Chip:   int(e.chip),
		Block:  f.firstNormal + sb,
		Page:   int(e.page),
		Sector: int(e.sector),
	}, nil
}

// psnLoc resolves a PSN to a physical address.
func (f *FTL) psnLoc(psn mapping.PSN) (nand.Addr, error) {
	if psn < 0 {
		return nand.Addr{}, fmt.Errorf("ftl: invalid PSN %d", psn)
	}
	if psn >= f.aggLimit {
		return f.staging.AddrOf(int64(psn - f.aggLimit))
	}
	var zone int
	var off int64
	if f.zonePow2 {
		zone = int(int64(psn) >> f.zoneShift)
		off = int64(psn) & f.zoneMask
	} else {
		zone = int(int64(psn) / f.zoneCap)
		off = int64(psn) % f.zoneCap
	}
	if off < f.sbSectors {
		return f.headLoc(zone, off)
	}
	zs := &f.zstate[zone]
	if !zs.tailSet {
		return nand.Addr{}, fmt.Errorf("ftl: zone %d tail PSN %d without tail base", zone, psn)
	}
	return f.staging.AddrOf(zs.tailBase + (off - f.sbSectors))
}

// mapChip returns the chip whose map region holds the translation entry
// for lpa: translation pages are striped across chips by entry group.
func (f *FTL) mapChip(lpa int64) int {
	if f.mapPow2 {
		return int((lpa >> f.mapShift) & f.mapChipMask)
	}
	entriesPerSector := units.Sector / f.params.L2PEntryBytes
	if entriesPerSector <= 0 {
		entriesPerSector = 1
	}
	return int((lpa / entriesPerSector) % int64(f.geo.Chips()))
}
