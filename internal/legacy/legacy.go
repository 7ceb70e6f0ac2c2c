// Package legacy implements the baseline the paper calls "Legacy":
// traditional consumer-grade flash storage with a page-mapping FTL,
// in-place updates from the host, a volatile write buffer, an SLC write
// cache, device-side garbage collection, and a demand-paged L2P cache with
// sequential prefetch (paper §IV-A, §IV-C and Fig. 1(a)).
//
// It shares the NAND array, SLC-region and write-buffer substrates with
// ConZone so that Fig. 6(a)'s comparison isolates the FTL design: zone
// abstraction plus hybrid mapping versus page mapping plus prefetch.
package legacy

import (
	"fmt"

	"github.com/conzone/conzone/internal/nand"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/slc"
	"github.com/conzone/conzone/internal/units"
	"github.com/conzone/conzone/internal/wbuf"
)

// Params configures the legacy device.
type Params struct {
	L2PCacheBytes   int64 // cache budget (paper: 12 KiB)
	L2PEntryBytes   int64 // bytes per entry (paper: 4)
	PrefetchWindow  int64 // entries loaded around a miss (paper: 1023 + the missed one)
	GCFreeTarget    int   // run GC when free normal superblocks drop below this
	OverprovisionSB int   // normal superblocks withheld from the logical capacity
}

// Stats counts legacy-device activity.
type Stats struct {
	HostReadBytes    int64
	HostWrittenBytes int64
	DirectPUs        int64
	StagedSectors    int64
	GCCycles         int64
	GCMigratedPages  int64
	MapFetches       int64
	BufferReads      int64
	CacheHits        int64
	CacheMisses      int64
}

// physical index spaces, mirroring the FTL's convention: normal-area
// indices are sb*sbSectors+off; staged indices start at stagedBase.
type phys = int64

const invalidPhys phys = -1

type sbState struct {
	valid      []bool
	lpa        []int64
	validCount int
	inFree     bool
}

// Device is the legacy page-mapping flash device.
type Device struct {
	arr     *nand.Array
	params  Params
	bufs    *wbuf.Manager
	staging *slc.Region
	cache   *pageCache

	table      []phys // lpa -> phys
	sbSectors  int64
	puSectors  int64
	chips      int // geo.Chips()
	numSB      int
	stagedBase phys

	sbs     []sbState
	freeSBs []int
	cur     int   // open normal superblock, -1
	pos     int64 // next sector offset in cur

	totalSectors int64
	bufAvail     sim.Time
	stats        Stats

	pages nand.PageRuns // page batching of the current read or GC pass
}

// New builds a legacy device over a fresh array with the given geometry.
func New(geo nand.Geometry, lat nand.LatencyTable, p Params) (*Device, error) {
	arr, err := nand.NewArray(geo, lat, sim.NewEngine())
	if err != nil {
		return nil, err
	}
	return NewWithArray(arr, p)
}

// NewWithArray builds the device over an existing array.
func NewWithArray(arr *nand.Array, p Params) (*Device, error) {
	geo := arr.Geometry()
	if p.L2PCacheBytes <= 0 || p.L2PEntryBytes <= 0 {
		return nil, fmt.Errorf("legacy: cache sizes must be positive")
	}
	if p.PrefetchWindow < 0 {
		return nil, fmt.Errorf("legacy: negative prefetch window")
	}
	if p.GCFreeTarget < 1 {
		return nil, fmt.Errorf("legacy: GCFreeTarget must be at least 1")
	}
	if geo.SLCBlocks < 2 {
		return nil, fmt.Errorf("legacy: need at least 2 SLC blocks")
	}
	numSB := geo.NormalBlocks()
	if p.OverprovisionSB < 1 || p.OverprovisionSB >= numSB {
		return nil, fmt.Errorf("legacy: OverprovisionSB %d must be in [1,%d)", p.OverprovisionSB, numSB)
	}
	d := &Device{
		arr:       arr,
		params:    p,
		chips:     geo.Chips(),
		sbSectors: geo.SuperblockBytes() / units.Sector,
		puSectors: geo.ProgramUnit / units.Sector,
		numSB:     numSB,
		cur:       -1,
	}
	d.stagedBase = int64(numSB) * d.sbSectors
	d.totalSectors = int64(numSB-p.OverprovisionSB) * d.sbSectors
	d.table = make([]phys, d.totalSectors)
	for i := range d.table {
		d.table[i] = invalidPhys
	}
	var err error
	d.bufs, err = wbuf.New(1, geo.SuperpageBytes()/units.Sector)
	if err != nil {
		return nil, err
	}
	slcBlocks := make([]int, geo.SLCBlocks)
	for i := range slcBlocks {
		slcBlocks[i] = i
	}
	d.staging, err = slc.NewRegion(arr, slcBlocks)
	if err != nil {
		return nil, err
	}
	d.cache = newPageCache(p.L2PCacheBytes/p.L2PEntryBytes, d.totalSectors)
	d.sbs = make([]sbState, numSB)
	for i := range d.sbs {
		d.sbs[i] = sbState{
			valid:  make([]bool, d.sbSectors),
			lpa:    make([]int64, d.sbSectors),
			inFree: true,
		}
		d.freeSBs = append(d.freeSBs, i)
	}
	return d, nil
}

// TotalSectors returns the host-visible logical capacity in sectors.
func (d *Device) TotalSectors() int64 { return d.totalSectors }

// Array exposes the NAND array for statistics.
func (d *Device) Array() *nand.Array { return d.arr }

// Stats returns a snapshot of the counters.
func (d *Device) Stats() Stats { return d.stats }

// CheckInvariants verifies the device's bookkeeping between operations:
// every superblock is exactly one of free, open or closed and the free list
// names each free one once; a superblock's valid count is its set bits (none
// on a free one); and the page table and the reverse maps agree — every
// entry points at a live sector that points back, and no live sector is
// unreferenced.
func (d *Device) CheckInvariants() error {
	if err := d.staging.CheckInvariants(); err != nil {
		return err
	}
	listed := make([]int, len(d.sbs))
	for _, sb := range d.freeSBs {
		listed[sb]++
	}
	var live, staged int64
	for i := range d.sbs {
		sb := &d.sbs[i]
		n := 0
		for _, v := range sb.valid {
			if v {
				n++
			}
		}
		switch {
		case sb.inFree && (listed[i] != 1 || i == d.cur || n != 0):
			return fmt.Errorf("legacy: free superblock %d is listed free %d times, open=%v, holds %d valid sectors", i, listed[i], i == d.cur, n)
		case !sb.inFree && listed[i] != 0:
			return fmt.Errorf("legacy: superblock %d is in use but listed free %d times", i, listed[i])
		case n != sb.validCount:
			return fmt.Errorf("legacy: superblock %d: validCount %d, %d valid bits", i, sb.validCount, n)
		}
		live += int64(n)
	}
	for lpa, p := range d.table {
		switch {
		case p == invalidPhys:
			continue
		case p >= d.stagedBase:
			if back, err := d.staging.LPAAt(p - d.stagedBase); err != nil || !d.staging.IsValid(p-d.stagedBase) || back != int64(lpa) {
				return fmt.Errorf("legacy: LPA %d maps to staged index %d, which is dead or holds LPA %d (%v)", lpa, p-d.stagedBase, back, err)
			}
			staged++
		default:
			sb, off := &d.sbs[p/d.sbSectors], p%d.sbSectors
			if !sb.valid[off] || sb.lpa[off] != int64(lpa) {
				return fmt.Errorf("legacy: LPA %d maps to %d/%d, which is dead or holds LPA %d", lpa, p/d.sbSectors, off, sb.lpa[off])
			}
			live--
		}
	}
	if live != 0 || staged != d.staging.TotalValid() {
		return fmt.Errorf("legacy: %d live normal sectors and %d of %d valid staged sectors have no page-table entry",
			live, d.staging.TotalValid()-staged, d.staging.TotalValid())
	}
	return nil
}

// physLoc resolves a physical index to a flash address.
func (d *Device) physLoc(p phys) (nand.Addr, error) {
	if p < 0 {
		return nand.Addr{}, fmt.Errorf("legacy: invalid phys %d", p)
	}
	if p >= d.stagedBase {
		return d.staging.AddrOf(p - d.stagedBase)
	}
	return d.arr.StripeAddr(int(p/d.sbSectors), p%d.sbSectors), nil
}

// invalidateOld marks the previous location of lpa dead, wherever it is.
func (d *Device) invalidateOld(lpa int64) error {
	old := d.table[lpa]
	if old == invalidPhys {
		return nil
	}
	if old >= d.stagedBase {
		if d.staging.IsValid(old - d.stagedBase) {
			if err := d.staging.Invalidate(old - d.stagedBase); err != nil {
				return err
			}
		}
	} else {
		sb := int(old / d.sbSectors)
		off := old % d.sbSectors
		if d.sbs[sb].valid[off] {
			d.sbs[sb].valid[off] = false
			d.sbs[sb].validCount--
		}
	}
	d.table[lpa] = invalidPhys
	d.cache.invalidate(lpa)
	return nil
}

func (d *Device) bindSB() error {
	if len(d.freeSBs) == 0 {
		return fmt.Errorf("legacy: no free superblock")
	}
	d.cur = d.freeSBs[0]
	d.freeSBs = d.freeSBs[1:]
	d.sbs[d.cur].inFree = false
	d.pos = 0
	return nil
}

// programRun places the whole program units of a run of (lpa, payload)
// pairs at the device write pointer, re-pointing the page table at each
// sector as its unit lands, and returns how many sectors it placed — the
// sub-unit remainder is the caller's to stage. A host flush issues every
// unit at 'at' and the chips program side by side; device-internal movement
// is chained, each unit issued when the previous one is done.
func (d *Device) programRun(at sim.Time, lpas []int64, payloads [][]byte, chained bool) (placed int64, done sim.Time, err error) {
	done = at
	for n := int64(len(lpas)); placed+d.puSectors <= n; placed += d.puSectors {
		if d.cur < 0 || d.pos == d.sbSectors {
			if err := d.bindSB(); err != nil {
				return placed, at, err
			}
		}
		addr := d.arr.StripeAddr(d.cur, d.pos)
		_, dn, err := d.arr.ProgramPU(at, addr.Chip, addr.Block, addr.Page, payloads[placed:placed+d.puSectors])
		if err != nil {
			return placed, at, err
		}
		sb := &d.sbs[d.cur]
		for _, lpa := range lpas[placed : placed+d.puSectors] {
			sb.valid[d.pos] = true
			sb.lpa[d.pos] = lpa
			sb.validCount++
			d.table[lpa] = phys(int64(d.cur)*d.sbSectors + d.pos)
			d.cache.update(lpa)
			d.pos++
		}
		d.stats.DirectPUs++
		done = sim.Max(done, dn)
		if chained {
			at = done
		}
	}
	return placed, done, nil
}

// Write accepts a host write of len(payloads) sectors at lba; unlike the
// zoned device, any in-range lba may be (re)written at any time.
func (d *Device) Write(at sim.Time, lba int64, payloads [][]byte) (sim.Time, error) {
	n := int64(len(payloads))
	if n <= 0 {
		return at, fmt.Errorf("legacy: empty write")
	}
	if lba < 0 || lba+n > d.totalSectors {
		return at, fmt.Errorf("legacy: write [%d,%d) out of range", lba, lba+n)
	}
	if d.bufAvail > at {
		at = d.bufAvail
	}
	// A single shared buffer: it aggregates one contiguous run; a write
	// that does not extend the run flushes the buffer first, which is how
	// small sync writes end up in SLC.
	start, cnt := d.bufs.Buffered(0)
	if cnt > 0 && lba != start+cnt {
		if fl := d.bufs.Take(0); fl != nil {
			done, err := d.flushRun(at, fl.StartLBA, fl.Payloads)
			if err != nil {
				return at, err
			}
			d.bufAvail = done
			at = done
		}
	}
	flushes, err := d.bufs.Append(0, lba, payloads)
	if err != nil {
		return at, err
	}
	done := at
	for _, fl := range flushes {
		dn, err := d.flushRun(at, fl.StartLBA, fl.Payloads)
		if err != nil {
			return at, err
		}
		if dn > done {
			done = dn
		}
	}
	if len(flushes) > 0 {
		d.bufAvail = done
	}
	d.stats.HostWrittenBytes += n * units.Sector
	d.arr.Engine().Observe(done)
	return at, nil
}

// Flush drains the write buffer.
func (d *Device) Flush(at sim.Time) (sim.Time, error) {
	fl := d.bufs.Take(0)
	if fl == nil {
		return at, nil
	}
	done, err := d.flushRun(at, fl.StartLBA, fl.Payloads)
	if err != nil {
		return at, err
	}
	d.bufAvail = done
	return done, nil
}

// FlushAll satisfies the common device interface.
func (d *Device) FlushAll(at sim.Time) (sim.Time, error) { return d.Flush(at) }

// flushRun places a contiguous run: whole program units go to the normal
// area, the partial remainder to the SLC write cache.
func (d *Device) flushRun(at sim.Time, startLBA int64, payloads [][]byte) (sim.Time, error) {
	done, err := d.ensureGC(at, int64(len(payloads)))
	if err != nil {
		return at, err
	}
	at = done
	n := int64(len(payloads))
	lpas := make([]int64, n-n%d.puSectors)
	for j := range lpas {
		lpas[j] = startLBA + int64(j)
		if err := d.invalidateOld(lpas[j]); err != nil {
			return at, err
		}
	}
	i, done, err := d.programRun(at, lpas, payloads, false)
	if err != nil {
		return at, err
	}
	if i < n {
		ws := make([]slc.Write, 0, n-i)
		for ; i < n; i++ {
			lpa := startLBA + i
			if err := d.invalidateOld(lpa); err != nil {
				return at, err
			}
			ws = append(ws, slc.Write{LPA: lpa, Payload: payloads[i]})
		}
		dn, err := d.stage(at, ws)
		if err != nil {
			return at, err
		}
		done = sim.Max(done, dn)
	}
	return done, nil
}

// Read serves a host read, charging map fetches with sequential prefetch
// on cache misses. The returned payload entries are borrowed views of the
// media or the write buffer, stable until the next device operation.
func (d *Device) Read(at sim.Time, lba, n int64) ([][]byte, sim.Time, error) {
	out := make([][]byte, max(n, 0)) // ReadInto rejects n <= 0
	done, err := d.ReadInto(at, lba, n, out)
	if err != nil {
		return nil, at, err
	}
	return out, done, nil
}

// ReadInto is Read with caller-provided payload storage: out must hold
// exactly n entries.
func (d *Device) ReadInto(at sim.Time, lba, n int64, out [][]byte) (sim.Time, error) {
	if n <= 0 || lba < 0 || lba+n > d.totalSectors {
		return at, fmt.Errorf("legacy: read [%d,%d) out of range", lba, lba+n)
	}
	if int64(len(out)) != n {
		return at, fmt.Errorf("legacy: ReadInto dst holds %d entries, want %d", len(out), n)
	}
	d.pages.Reset()
	fetchDone := at
	for i := int64(0); i < n; i++ {
		l := lba + i
		out[i] = nil
		if p, ok := d.bufs.ReadSector(0, l); ok {
			out[i] = p
			d.stats.BufferReads++
			continue
		}
		if !d.cache.lookup(l) {
			d.stats.CacheMisses++
			// One translation-page read loads the missed entry plus the
			// prefetch window of sequential successors.
			dn, err := d.arr.ChargeMapRead(at, d.mapChip(l))
			if err != nil {
				return at, err
			}
			if dn > fetchDone {
				fetchDone = dn
			}
			d.stats.MapFetches++
			win := l - l%(d.params.PrefetchWindow+1)
			for w := win; w <= win+d.params.PrefetchWindow && w < d.totalSectors; w++ {
				d.cache.insert(w)
			}
		} else {
			d.stats.CacheHits++
		}
		p := d.table[l]
		if p == invalidPhys {
			continue
		}
		addr, err := d.physLoc(p)
		if err != nil {
			return at, err
		}
		out[i] = d.arr.Payload(d.arr.PPAOf(addr))
		d.pages.Add(addr)
	}
	done := fetchDone
	for _, r := range d.pages.Runs() {
		end, err := d.arr.ReadPage(fetchDone, r.Chip, r.Block, r.Page, r.Bytes)
		if err != nil {
			return at, err
		}
		if end > done {
			done = end
		}
	}
	d.stats.HostReadBytes += n * units.Sector
	d.arr.Engine().Observe(done)
	return done, nil
}

func (d *Device) mapChip(lpa int64) int {
	per := units.Sector / d.params.L2PEntryBytes
	if per <= 0 {
		per = 1
	}
	return int((lpa / per) % int64(d.chips))
}
