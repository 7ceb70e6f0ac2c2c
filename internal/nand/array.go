package nand

import (
	"fmt"
	"time"

	"github.com/conzone/conzone/internal/obs"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
)

// blockInfo is the per-block metadata the hot paths consult instead of
// re-deriving media mode, page count and latency through Geometry's
// value-receiver methods (copying the geometry struct per call). It is
// immutable after construction.
type blockInfo struct {
	pages int
	media Media
	lat   Latency
}

// blockState tracks the NAND-physics state of one per-chip block: how far
// it has been programmed (blocks are append-only between erases) and how
// often it has been erased.
type blockState struct {
	nextSector int // next programmable sector offset within the block
	eraseCount int64
}

// Counters accumulates raw media activity for reporting and WAF accounting.
type Counters struct {
	PageReads       int64 // page sense operations
	PUPrograms      int64 // full program-unit operations on normal media
	PartialPrograms int64 // 4 KiB partial programs on SLC
	PageProgramsSLC int64 // whole-page SLC program operations
	MapPrograms     int64 // L2P-log flushes into the map region
	Erases          int64
	BytesRead       int64 // payload bytes transferred to the host side
	BytesProgrammed int64 // payload bytes programmed into media
}

// Array is the flash media model: per-chip and per-channel timing resources
// plus programmed-state and payload storage.
type Array struct {
	geo      Geometry
	lat      LatencyTable
	engine   *sim.Engine
	chips    []*sim.Resource
	channels []*sim.Resource
	blocks   [][]blockState // [chip][block]
	counters Counters
	chanTab  []*sim.Resource // per-chip channel resource (chanOf without the modulo)
	meta     []blockInfo     // per-block media/pages/latency, derived at construction
	xferTab  []time.Duration // channel transfer time by n/Sector, for sector multiples up to one PU

	// Sparse per-sector state (see slab.go): one chunk per chunkSectors
	// linear sectors, nil until a sector of it is programmed.
	nsectors   int64          // geo.TotalSectors()
	chunks     []*sectorChunk // by linear sector >> chunkShift
	freeChunks []*sectorChunk // all-zero chunks released by erases
	slabs      slabArena      // payload buffers by handle

	// obs is the device's lifecycle recorder, nil when observation is off.
	// The array is its one holder: the layers above record through Recorder,
	// and since the array is what survives a mount, so does observation.
	obs    *obs.Recorder
	faults FaultInjector // nil = media never fails

	// lastProgStart models each chip's cache register (cache-program
	// pipeline): a data transfer for program n+1 may begin once program n
	// has moved its data out of the register, i.e. once program n has
	// started. This bounds the program pipeline at one in-flight transfer
	// per chip without serialising transfers behind tPROG.
	lastProgStart []sim.Time

	// Power-loss model (see power.go): when armed, the first operation
	// completing past cutAt is torn and the array dies. powerCuts counts
	// fired cuts and recoveries counts PowerOn calls; both accumulate
	// across remounts because the array itself survives them.
	cutArmed   bool
	cutAt      sim.Time
	dead       bool
	powerCuts  int64
	recoveries int64

	// seq is the global program sequence counter OOB stamps draw from
	// (see power.go).
	seq int64

	// Durable metadata journal: resets and retirements (see power.go).
	journal []MetaRecord
}

// NewArray builds an array for a validated geometry and latency table.
func NewArray(geo Geometry, lat LatencyTable, engine *sim.Engine) (*Array, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if err := lat.Validate(); err != nil {
		return nil, err
	}
	if engine == nil {
		engine = sim.NewEngine()
	}
	a := &Array{geo: geo, lat: lat, engine: engine}
	for c := 0; c < geo.Channels; c++ {
		a.channels = append(a.channels, engine.NewResource(fmt.Sprintf("chan%d", c)))
	}
	for c := 0; c < geo.Chips(); c++ {
		a.chips = append(a.chips, engine.NewResource(fmt.Sprintf("chip%d", c)))
	}
	a.chanTab = make([]*sim.Resource, geo.Chips())
	for c := range a.chanTab {
		a.chanTab[c] = a.channels[geo.ChannelOf(c)]
	}
	a.meta = make([]blockInfo, geo.BlocksPerChip)
	for b := range a.meta {
		m := geo.MediaOf(b)
		a.meta[b] = blockInfo{pages: geo.PagesIn(b), media: m, lat: lat.For(m)}
	}
	a.xferTab = make([]time.Duration, geo.ProgramUnit/units.Sector+1)
	for i := range a.xferTab {
		a.xferTab[i] = units.TransferTime(int64(i)*units.Sector, geo.ChannelMiBps)
	}
	a.blocks = make([][]blockState, geo.Chips())
	for c := range a.blocks {
		a.blocks[c] = make([]blockState, geo.BlocksPerChip)
	}
	a.nsectors = geo.TotalSectors()
	a.chunks = make([]*sectorChunk, (a.nsectors+chunkMask)>>chunkShift)
	a.lastProgStart = make([]sim.Time, geo.Chips())
	return a, nil
}

// Geometry returns the array's geometry. It copies the struct: layers that
// address the array per operation keep what they derive from it.
func (a *Array) Geometry() Geometry { return a.geo }

// PPAOf is Geometry.PPAOf without the copy of the geometry, the form the
// per-sector paths of the layers above use.
func (a *Array) PPAOf(ad Addr) PPA { return a.geo.ppaOf(ad) }

// StripeAddr is the one statement of the superblock striping rule: sector
// offset off of normal superblock sb lives in program unit k = off div
// unit-sectors, and unit k stripes to chip k mod chips, unit row k div
// chips of block FirstNormalBlock+sb. Every layer that places data
// zone-linearly in a superblock goes through it (the FTL's head table
// tabulates it).
func (a *Array) StripeAddr(sb int, off int64) Addr {
	g := &a.geo
	pu, spp := g.ProgramUnit/units.Sector, int64(g.sectorsPerPage())
	k, in := off/pu, off%pu
	chips := int64(len(a.chips))
	lin := (k/chips)*pu + in // sector within the chip's block: unit rows are contiguous
	return Addr{
		Chip:   int(k % chips),
		Block:  g.SLCBlocks + g.MapBlocks + sb,
		Page:   int(lin / spp),
		Sector: int(lin % spp),
	}
}

// Engine returns the simulation engine the array reserves time on.
func (a *Array) Engine() *sim.Engine { return a.engine }

// Counters returns a snapshot of the media activity counters.
func (a *Array) Counters() Counters { return a.counters }

// SetRecorder attaches a lifecycle recorder; nil disables observation.
func (a *Array) SetRecorder(r *obs.Recorder) { a.obs = r }

// Recorder returns the attached lifecycle recorder (nil when disabled).
func (a *Array) Recorder() *obs.Recorder { return a.obs }

// record emits one media span (nil-safe via the recorder).
func (a *Array) record(stage obs.Stage, begin, end sim.Time, chip int, n int64) {
	if a.obs == nil {
		return
	}
	a.obs.Record(obs.Event{
		Stage: stage, Begin: begin, End: end,
		Zone: -1, Actor: int32(chip), LBA: -1, N: n,
	})
}

// EraseCount returns how many times the given per-chip block was erased.
func (a *Array) EraseCount(chip, block int) int64 {
	return a.blocks[chip][block].eraseCount
}

// PreWear ages every block of the array by the given erase count, as if the
// device had already lived through that many program/erase cycles. It models
// a used consumer device entering an experiment: wear reports start from the
// aged baseline and a wear-coupled fault injector sees the elevated counts
// from the first operation. Media contents are untouched. Negative values
// are ignored.
func (a *Array) PreWear(erases int64) {
	if erases <= 0 {
		return
	}
	for c := range a.blocks {
		for b := range a.blocks[c] {
			a.blocks[c][b].eraseCount += erases
		}
	}
}

func (a *Array) checkAddr(chip, block int) error {
	if chip < 0 || chip >= len(a.chips) {
		return fmt.Errorf("nand: chip %d out of range [0,%d)", chip, len(a.chips))
	}
	if block < 0 || block >= a.geo.BlocksPerChip {
		return fmt.Errorf("nand: block %d out of range [0,%d)", block, a.geo.BlocksPerChip)
	}
	return nil
}

func (a *Array) chanOf(chip int) *sim.Resource {
	return a.chanTab[chip]
}

// transfer reserves the chip's channel for moving n payload bytes starting
// no earlier than 'ready' and returns the transfer completion time. Sector
// multiples up to one program unit — every size the device issues — come
// from the precomputed table; anything else recomputes.
func (a *Array) transfer(ready sim.Time, chip int, n int64) sim.Time {
	var d time.Duration
	if s := n / units.Sector; n&(units.Sector-1) == 0 && s >= 0 && s < int64(len(a.xferTab)) {
		d = a.xferTab[s]
	} else {
		d = units.TransferTime(n, a.geo.ChannelMiBps)
	}
	_, end := a.chanOf(chip).Reserve(ready, d)
	return end
}

// ReadPage senses one page and transfers xferBytes of it to the controller.
// xferBytes may be less than the page size when only some sectors are
// needed; the sense still costs the full tR. It returns the completion time.
//
// With a fault injector attached the sense may need extra read-retry rounds
// (each a full tR), and may ultimately fail with ErrUncorrectable — the
// returned time then covers the exhausted retries.
func (a *Array) ReadPage(at sim.Time, chip, block, page int, xferBytes int64) (sim.Time, error) {
	return a.readPage(at, chip, block, page, xferBytes, false)
}

// ReadPageReliable is ReadPage for the device's internal movement paths
// (GC migration, combines, bad-block relocation): read-retry latency is
// still charged, but the read always recovers the data — acknowledged host
// data is never lost to a transient read fault inside the device.
func (a *Array) ReadPageReliable(at sim.Time, chip, block, page int, xferBytes int64) (sim.Time, error) {
	return a.readPage(at, chip, block, page, xferBytes, true)
}

func (a *Array) readPage(at sim.Time, chip, block, page int, xferBytes int64, reliable bool) (sim.Time, error) {
	if err := a.checkAddr(chip, block); err != nil {
		return at, err
	}
	bm := &a.meta[block]
	if page < 0 || page >= bm.pages {
		return at, fmt.Errorf("nand: page %d out of range [0,%d) in %v block", page, bm.pages, bm.media)
	}
	if xferBytes < 0 || xferBytes > a.geo.PageSize {
		return at, fmt.Errorf("nand: transfer %d outside page of %d bytes", xferBytes, a.geo.PageSize)
	}
	media := bm.media
	lat := bm.lat
	_, senseEnd := a.chips[chip].Reserve(at, lat.Read)
	if err := a.gate(senseEnd); err != nil {
		return senseEnd, err
	}
	if a.faults != nil {
		retries, unc := a.faults.ReadFault(media, chip, block, a.blocks[chip][block].eraseCount)
		if retries > 0 {
			retryStart := senseEnd
			for r := 0; r < retries; r++ {
				_, senseEnd = a.chips[chip].Reserve(senseEnd, lat.Read)
			}
			a.record(obs.StageNANDReadRetry, retryStart, senseEnd, chip, int64(retries))
		}
		if unc && !reliable {
			// ECC gave up: no data is transferred; the time spent sensing
			// and retrying is still charged to the chip.
			a.counters.PageReads++
			a.engine.Observe(senseEnd)
			return senseEnd, fmt.Errorf("nand: read %d/%d page %d: %w", chip, block, page, ErrUncorrectable)
		}
	}
	done := a.transfer(senseEnd, chip, xferBytes)
	a.counters.PageReads++
	a.counters.BytesRead += xferBytes
	a.engine.Observe(done)
	a.record(obs.StageNANDRead, at, done, chip, xferBytes)
	return done, nil
}

// ChargeMapRead models fetching one L2P mapping entry group from the map
// region of a chip: a page sense in SLC mode plus the transfer of a single
// mapping sector. It exists so the FTL can account translation-table reads
// without mutating block state (the paper defers map persistence to future
// work, §III-E).
func (a *Array) ChargeMapRead(at sim.Time, chip int) (sim.Time, error) {
	if chip < 0 || chip >= len(a.chips) {
		return at, fmt.Errorf("nand: chip %d out of range", chip)
	}
	lat := a.lat.For(SLCMode)
	_, senseEnd := a.chips[chip].Reserve(at, lat.Read)
	if err := a.gate(senseEnd); err != nil {
		return senseEnd, err
	}
	done := a.transfer(senseEnd, chip, units.Sector)
	a.counters.PageReads++
	a.counters.BytesRead += units.Sector
	a.engine.Observe(done)
	a.record(obs.StageNANDRead, at, done, chip, units.Sector)
	return done, nil
}

// chargeProgram is the timing half of every program operation: wait for the
// chip's cache register (it frees when the previous program starts), move
// xfer bytes over the chip's channel, reserve tProg on the chip, then gate on
// the power cut. On a gate error nothing else has changed — a torn program
// leaves the register model where it was.
func (a *Array) chargeProgram(at sim.Time, chip int, xfer int64, tProg time.Duration) (xferEnd, progEnd sim.Time, err error) {
	xferEnd = a.transfer(sim.Max(at, a.lastProgStart[chip]), chip, xfer)
	progStart, progEnd := a.chips[chip].Reserve(xferEnd, tProg)
	if err := a.gate(progEnd); err != nil {
		return xferEnd, progEnd, err
	}
	a.lastProgStart[chip] = progStart
	return xferEnd, progEnd, nil
}

// programSectors is the one program operation behind ProgramPU,
// ProgramSLCSector and ProgramSLCPage, which only validate their own
// addressing. It programs n sectors of an in-range block starting at the
// block's linear sector lin, which must be the block's append point (NAND
// pages are written in order). sectors is nil (nothing recorded) or holds n
// entries, each nil or a 4 KiB buffer that is copied into pooled media
// storage, never retained. counter is the operation's media counter. The
// sectors land as one run (programRun): the state they leave is per sector,
// the work is per state chunk plus one copy per stored payload.
//
// Two instants are returned: release, when the data has been transferred
// into the chip's page register (the source buffer may be reused), and
// done, when the program operation finishes. The transfer waits for both
// the channel and the chip's register (a chip mid-program cannot accept
// data), which is what creates write-path backpressure. A program torn by
// the power cut, or one that ends with status FAIL after its full tPROG,
// stores nothing and leaves the append point where it was; the caller of a
// failed program must relocate.
func (a *Array) programSectors(at sim.Time, chip, block, lin, n int, sectors [][]byte, counter *int64) (release, done sim.Time, err error) {
	if sectors != nil && len(sectors) != n {
		return at, at, fmt.Errorf("nand: program payload %d sectors, want %d", len(sectors), n)
	}
	for _, s := range sectors {
		if s != nil && int64(len(s)) != units.Sector {
			return at, at, fmt.Errorf("nand: program sector payload %d bytes, want %d", len(s), units.Sector)
		}
	}
	bs := &a.blocks[chip][block]
	if bs.nextSector != lin {
		return at, at, fmt.Errorf("nand: out-of-order program: block %d/%d expects sector %d, got %d",
			chip, block, bs.nextSector, lin)
	}
	bm := &a.meta[block]
	bytes := int64(n) * units.Sector
	xferEnd, progEnd, err := a.chargeProgram(at, chip, bytes, bm.lat.Program)
	if err != nil {
		return xferEnd, progEnd, err
	}
	if a.faults != nil && a.faults.ProgramFails(bm.media, chip, block, bs.eraseCount) {
		a.engine.Observe(progEnd)
		a.record(obs.StageNANDProgram, at, progEnd, chip, bytes)
		return xferEnd, progEnd, fmt.Errorf("nand: program %d/%d sector %d: %w", chip, block, lin, ErrProgramFail)
	}

	a.programRun(int64(a.PPAOf(Addr{Chip: chip, Block: block}))+int64(lin), int64(n), sectors)
	bs.nextSector = lin + n

	*counter++
	a.counters.BytesProgrammed += bytes
	a.engine.Observe(progEnd)
	a.record(obs.StageNANDProgram, at, progEnd, chip, bytes)
	return xferEnd, progEnd, nil
}

// ProgramPU programs one full program unit (geo.ProgramUnit bytes spanning
// PagesPerPU pages) on a normal-media block, starting at startPage, which
// must be unit-aligned with the whole unit inside the block. Payload,
// ordering and the two returned instants are programSectors'.
func (a *Array) ProgramPU(at sim.Time, chip, block, startPage int, sectors [][]byte) (release, done sim.Time, err error) {
	if err := a.checkAddr(chip, block); err != nil {
		return at, at, err
	}
	if a.meta[block].media == SLCMode {
		return at, at, fmt.Errorf("nand: ProgramPU on SLC-mode block %d", block)
	}
	ppu := a.geo.pagesPerPU()
	if startPage%ppu != 0 || startPage+ppu > a.geo.PagesPerBlock {
		return at, at, fmt.Errorf("nand: PU at page %d not aligned or out of block", startPage)
	}
	spp := a.geo.sectorsPerPage()
	return a.programSectors(at, chip, block, startPage*spp, ppu*spp, sectors, &a.counters.PUPrograms)
}

// checkSLCPage validates the addressing the two SLC front doors share.
func (a *Array) checkSLCPage(chip, block, page int) error {
	if err := a.checkAddr(chip, block); err != nil {
		return err
	}
	if a.meta[block].media != SLCMode {
		return fmt.Errorf("nand: SLC program on non-SLC block %d", block)
	}
	if page < 0 || page >= a.geo.SLCPagesPerBlock {
		return fmt.Errorf("nand: page %d out of SLC block range [0,%d)", page, a.geo.SLCPagesPerBlock)
	}
	return nil
}

// ProgramSLCSector partially programs one 4 KiB sector of an SLC-mode page
// (paper §II-A: "flash pages of single-level flash cells can be programmed
// partially with a programming unit of 4KiB"). Sectors within a block must
// be programmed in order.
func (a *Array) ProgramSLCSector(at sim.Time, chip, block, page, sector int, payload []byte) (release, done sim.Time, err error) {
	if err := a.checkSLCPage(chip, block, page); err != nil {
		return at, at, err
	}
	spp := a.geo.sectorsPerPage()
	if sector < 0 || sector >= spp {
		return at, at, fmt.Errorf("nand: sector %d out of page range [0,%d)", sector, spp)
	}
	one := [1][]byte{payload}
	return a.programSectors(at, chip, block, page*spp+sector, 1, one[:], &a.counters.PartialPrograms)
}

// ChargeMapProgram models persisting one L2P-log page into the map region:
// a page transfer plus an SLC-mode program on the given chip. Like
// ChargeMapRead it is timing-only — the map region's content is kept in
// host memory by the FTL (the paper defers real map persistence layout to
// future work, §III-E), but the bus/die time and the blocking it causes
// are real. It shares chargeProgram with the data programs and nothing
// else: there is no block, no append point and no fault verdict.
func (a *Array) ChargeMapProgram(at sim.Time, chip int) (sim.Time, error) {
	if chip < 0 || chip >= len(a.chips) {
		return at, fmt.Errorf("nand: chip %d out of range", chip)
	}
	_, progEnd, err := a.chargeProgram(at, chip, a.geo.PageSize, a.lat.For(SLCMode).Program)
	if err != nil {
		return progEnd, err
	}
	a.counters.MapPrograms++
	a.counters.BytesProgrammed += a.geo.PageSize
	a.engine.Observe(progEnd)
	a.record(obs.StageNANDProgram, at, progEnd, chip, a.geo.PageSize)
	return progEnd, nil
}

// ProgramSLCPage programs one whole SLC-mode page (all sectors) in a
// single program operation. Staging layers use it when a full page of data
// is available: one tPROG covers the page, which is why aggregating evicted
// buffer data at page granularity is so much cheaper than 4 KiB partials.
// The page must be the block's next unprogrammed one.
func (a *Array) ProgramSLCPage(at sim.Time, chip, block, page int, sectors [][]byte) (release, done sim.Time, err error) {
	if err := a.checkSLCPage(chip, block, page); err != nil {
		return at, at, err
	}
	spp := a.geo.sectorsPerPage()
	return a.programSectors(at, chip, block, page*spp, spp, sectors, &a.counters.PageProgramsSLC)
}

// Erase erases one per-chip block, clearing programmed state and payloads.
//
// With a fault injector attached the erase may fail: the full tBERS is
// charged and the erase cycle still counts toward the block's wear (the
// die attempted it), but the block's contents and write point are left
// unchanged and ErrEraseFail is returned — the caller must retire the block.
func (a *Array) Erase(at sim.Time, chip, block int) (sim.Time, error) {
	if err := a.checkAddr(chip, block); err != nil {
		return at, err
	}
	lat := a.meta[block].lat
	_, end := a.chips[chip].Reserve(at, lat.Erase)
	if err := a.gate(end); err != nil {
		// Torn erase: the block keeps its pre-erase contents and write
		// point; no wear is counted for the interrupted cycle.
		return end, err
	}
	bs := &a.blocks[chip][block]
	if a.faults != nil && a.faults.EraseFails(a.meta[block].media, chip, block, bs.eraseCount) {
		bs.eraseCount++
		a.counters.Erases++
		a.engine.Observe(end)
		a.record(obs.StageNANDErase, at, end, chip, 0)
		return end, fmt.Errorf("nand: erase %d/%d: %w", chip, block, ErrEraseFail)
	}
	bs.nextSector = 0
	bs.eraseCount++
	base := int64(a.PPAOf(Addr{Chip: chip, Block: block}))
	a.eraseSectors(base, base+int64(a.geo.maxPagesPerBlock()*a.geo.sectorsPerPage()))
	a.counters.Erases++
	a.engine.Observe(end)
	a.record(obs.StageNANDErase, at, end, chip, 0)
	return end, nil
}

// IsWritten reports whether the sector at ppa has been programmed since the
// last erase of its block.
func (a *Array) IsWritten(ppa PPA) bool {
	if ppa < 0 || int64(ppa) >= a.nsectors {
		return false
	}
	c := a.chunkOf(int64(ppa))
	return c != nil && c.written>>uint(ppa&chunkMask)&1 != 0
}

// Payload returns the stored bytes of one written sector, or nil when the
// sector was programmed without a recorded payload. An array that never
// stored a payload answers without loading the sector's state chunk.
//
// The returned slice is a borrow of the live pooled media slab: it must not
// be modified, and it is valid only until the sector is overwritten or its
// block is erased — the slab is then recycled and may be reprogrammed with
// unrelated data. Callers that let the bytes escape the current media
// operation (oracles, host-boundary copies) must copy them first.
func (a *Array) Payload(ppa PPA) []byte {
	if ppa < 0 || int64(ppa) >= a.nsectors || a.slabs.issued == 0 {
		return nil
	}
	c := a.chunkOf(int64(ppa))
	if c == nil {
		return nil
	}
	h := c.slab[ppa&chunkMask]
	if h == 0 {
		return nil
	}
	return a.slabs.buf(h)
}

// NextProgramSector returns the block's append point (linear sector offset
// within the block), used by allocators to validate their own state.
func (a *Array) NextProgramSector(chip, block int) int {
	return a.blocks[chip][block].nextSector
}

// TotalEraseCount sums the per-block erase counters over every chip. The
// invariant auditor cross-checks it against Counters().Erases.
func (a *Array) TotalEraseCount() int64 {
	var n int64
	for c := range a.blocks {
		for b := range a.blocks[c] {
			n += a.blocks[c][b].eraseCount
		}
	}
	return n
}
