package legacy

import (
	"bytes"
	"testing"

	"github.com/conzone/conzone/internal/nand"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
)

// read is ReadInto into a fresh container, for tests that keep what they
// read.
func read(d *Device, at sim.Time, lba, n int64) ([][]byte, sim.Time, error) {
	out := make([][]byte, max(n, 0))
	done, err := d.ReadInto(at, lba, n, out)
	return out, done, err
}

func testGeo() nand.Geometry {
	return nand.Geometry{
		Channels: 2, ChipsPerChannel: 2, BlocksPerChip: 16,
		PagesPerBlock: 24, SLCPagesPerBlock: 8, PageSize: 16 * units.KiB,
		SLCBlocks: 4, MapBlocks: 2, NormalMedia: nand.TLC,
		ProgramUnit: 96 * units.KiB, SLCProgramUnit: 4 * units.KiB,
		ChannelMiBps: 3200,
	}
}

func testParams() Params {
	return Params{
		L2PCacheBytes:   4 * units.KiB,
		L2PEntryBytes:   4,
		PrefetchWindow:  31,
		GCFreeTarget:    2,
		OverprovisionSB: 3,
	}
}

func newTestDevice(t *testing.T, mut ...func(*Params)) *Device {
	t.Helper()
	p := testParams()
	for _, m := range mut {
		m(&p)
	}
	d, err := New(testGeo(), nand.DefaultLatencies(), p)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func payloadFor(lba int64) []byte {
	p := make([]byte, units.Sector)
	for i := range p {
		p[i] = byte((lba*7 + int64(i)) % 249)
	}
	return p
}

func payloadsFor(lba, n int64) [][]byte {
	out := make([][]byte, n)
	for i := int64(0); i < n; i++ {
		out[i] = payloadFor(lba + i)
	}
	return out
}

func verifyRead(t *testing.T, d *Device, at sim.Time, lba, n int64) {
	t.Helper()
	out, _, err := read(d, at, lba, n)
	if err != nil {
		t.Fatalf("Read(%d,%d): %v", lba, n, err)
	}
	for i := int64(0); i < n; i++ {
		if !bytes.Equal(out[i], payloadFor(lba+i)) {
			t.Fatalf("payload mismatch at lba %d", lba+i)
		}
	}
}

func TestNewValidation(t *testing.T) {
	muts := []func(*Params){
		func(p *Params) { p.L2PCacheBytes = 0 },
		func(p *Params) { p.PrefetchWindow = -1 },
		func(p *Params) { p.GCFreeTarget = 0 },
		func(p *Params) { p.OverprovisionSB = 0 },
		func(p *Params) { p.OverprovisionSB = 100 },
	}
	for i, m := range muts {
		p := testParams()
		m(&p)
		if _, err := New(testGeo(), nand.DefaultLatencies(), p); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestCapacityExcludesOverprovision(t *testing.T) {
	d := newTestDevice(t)
	// 10 normal superblocks x 384 sectors, minus 3 OP = 2688.
	if d.TotalSectors() != 7*384 {
		t.Errorf("TotalSectors = %d", d.TotalSectors())
	}
}

func TestSequentialWriteRead(t *testing.T) {
	d := newTestDevice(t)
	if _, err := d.Write(0, 0, payloadsFor(0, 96)); err != nil {
		t.Fatal(err)
	}
	verifyRead(t, d, 0, 0, 96)
	if d.Stats().DirectPUs != 4 {
		t.Errorf("DirectPUs = %d", d.Stats().DirectPUs)
	}
}

func TestInPlaceUpdate(t *testing.T) {
	d := newTestDevice(t)
	if _, err := d.Write(0, 0, payloadsFor(0, 96)); err != nil {
		t.Fatal(err)
	}
	// Overwrite sector 10 with different content (in-place update from
	// the host's perspective).
	newPayload := bytes.Repeat([]byte{0xEE}, int(units.Sector))
	if _, err := d.Write(0, 10, [][]byte{newPayload}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Flush(0); err != nil {
		t.Fatal(err)
	}
	out, _, err := read(d, 0, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[0], newPayload) {
		t.Error("update not visible")
	}
	// Neighbours unaffected.
	verifyRead(t, d, 0, 11, 4)
}

func TestSmallSyncWritesGoToSLC(t *testing.T) {
	d := newTestDevice(t)
	// Non-contiguous small writes force buffer flushes below the PU size.
	if _, err := d.Write(0, 0, payloadsFor(0, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Write(0, 1000, payloadsFor(1000, 4)); err != nil {
		t.Fatal(err)
	}
	if d.Stats().StagedSectors == 0 {
		t.Error("small discontiguous writes should stage to SLC")
	}
	verifyRead(t, d, 0, 0, 4)
	verifyRead(t, d, 0, 1000, 4)
}

func TestReadUnwritten(t *testing.T) {
	d := newTestDevice(t)
	out, _, err := read(d, 0, 50, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range out {
		if p != nil {
			t.Error("phantom data")
		}
	}
}

func TestReadValidation(t *testing.T) {
	d := newTestDevice(t)
	if _, _, err := read(d, 0, -1, 1); err == nil {
		t.Error("negative lba accepted")
	}
	if _, _, err := read(d, 0, d.TotalSectors(), 1); err == nil {
		t.Error("out-of-range read accepted")
	}
	if _, _, err := read(d, 0, 0, 0); err == nil {
		t.Error("zero-length read accepted")
	}
	if _, err := d.Write(0, d.TotalSectors()-1, payloadsFor(0, 2)); err == nil {
		t.Error("overflowing write accepted")
	}
}

func TestPrefetchReducesFetches(t *testing.T) {
	d := newTestDevice(t)
	if _, err := d.Write(0, 0, payloadsFor(0, 384)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Flush(0); err != nil {
		t.Fatal(err)
	}
	// Sequential single-sector reads: with a prefetch window of 31+1, a
	// fetch should occur at most once per 32 sectors.
	at := sim.Time(0)
	for lba := int64(0); lba < 128; lba++ {
		_, done, err := read(d, at, lba, 1)
		if err != nil {
			t.Fatal(err)
		}
		at = done
	}
	if got := d.Stats().MapFetches; got > 4 {
		t.Errorf("MapFetches = %d, want <= 4 with prefetch", got)
	}
	if d.Stats().CacheHits == 0 {
		t.Error("no cache hits recorded")
	}
}

func TestGCReclaimsInvalidatedSpace(t *testing.T) {
	d := newTestDevice(t)
	// Logical capacity is 7 superblocks but media has 10; overwriting the
	// same range repeatedly forces GC.
	n := int64(384) // one superblock's worth
	var at sim.Time
	for round := 0; round < 14; round++ {
		for off := int64(0); off < n; off += 96 {
			done, err := d.Write(at, off, payloadsFor(off, 96))
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			at = done
		}
	}
	if d.Stats().GCCycles == 0 {
		t.Error("GC never ran")
	}
	verifyRead(t, d, at, 0, n)
	if d.WAF() < 1.0 {
		t.Errorf("WAF = %v", d.WAF())
	}
}

func TestFullDriveOverwriteStress(t *testing.T) {
	d := newTestDevice(t)
	rng := sim.NewRand(7)
	model := make(map[int64]byte)
	var at sim.Time
	// Random 8..24-sector writes over the whole logical space, then full
	// verification. Payload content derives from (lba, version).
	version := make(map[int64]int64)
	for step := 0; step < 300; step++ {
		lba := rng.Int63n(d.TotalSectors() - 24)
		n := rng.Int63n(16) + 8
		payloads := make([][]byte, n)
		for i := int64(0); i < n; i++ {
			version[lba+i]++
			b := byte((lba + i + version[lba+i]) % 251)
			payloads[i] = bytes.Repeat([]byte{b}, int(units.Sector))
			model[lba+i] = b
		}
		done, err := d.Write(at, lba, payloads)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		at = done
	}
	if _, err := d.Flush(at); err != nil {
		t.Fatal(err)
	}
	for lba, want := range model {
		out, _, err := read(d, at, lba, 1)
		if err != nil {
			t.Fatal(err)
		}
		if out[0] == nil || out[0][0] != want {
			t.Fatalf("lba %d: got %v, want %d", lba, out[0], want)
		}
	}
}

func TestWAFAboveOneUnderRandomWrites(t *testing.T) {
	d := newTestDevice(t)
	rng := sim.NewRand(9)
	var at sim.Time
	for step := 0; step < 400; step++ {
		lba := rng.Int63n(d.TotalSectors() - 8)
		done, err := d.Write(at, lba, payloadsFor(lba, 8))
		if err != nil {
			t.Fatal(err)
		}
		at = done
	}
	if waf := d.WAF(); waf <= 1.0 {
		t.Errorf("random-write WAF = %v, want > 1", waf)
	}
}

func TestPageCache(t *testing.T) {
	c := newPageCache(3, 100)
	if c.lookup(1) {
		t.Error("hit on empty cache")
	}
	c.insert(1)
	c.insert(2)
	c.insert(3)
	if !c.lookup(1) {
		t.Error("miss on resident entry")
	}
	c.insert(4) // evicts 2 (LRU after 1 was touched)
	if c.lookup(2) {
		t.Error("LRU entry survived")
	}
	if !c.lookup(3) || !c.lookup(4) {
		t.Error("wrong entry evicted")
	}
	c.invalidate(3)
	if c.lookup(3) {
		t.Error("invalidated entry still cached")
	}
	if c.len() != 2 {
		t.Errorf("len = %d", c.len())
	}
	c.update(4) // must not panic or insert
	c.update(99)
	if c.lookup(99) {
		t.Error("update inserted a new entry")
	}
}

func TestPageCacheMinCapacity(t *testing.T) {
	c := newPageCache(0, 100)
	c.insert(1)
	if !c.lookup(1) {
		t.Error("cache with clamped capacity unusable")
	}
}

func TestBufferReadHit(t *testing.T) {
	d := newTestDevice(t)
	if _, err := d.Write(0, 5, payloadsFor(5, 4)); err != nil {
		t.Fatal(err)
	}
	verifyRead(t, d, 0, 5, 4)
	if d.Stats().BufferReads != 4 {
		t.Errorf("BufferReads = %d", d.Stats().BufferReads)
	}
}

// TestGCDoesNotReenter is ROADMAP item 1's stream: multi-sector overwrites
// of a hot third keep the SLC cache under pressure while GC victims still
// hold a sub-unit remainder. Before PR 22 staging that remainder could drain
// the cache and collect again mid-collection; seeds 1-4 died after 1,340 /
// 1,164 / 2,380 / 851 operations.
func TestGCDoesNotReenter(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		d := newTestDevice(t)
		rng := sim.NewRand(seed)
		span := uint64(d.TotalSectors() / 3)
		var at sim.Time
		for op := 0; op < 3000; op++ {
			var err error
			switch r := rng.Uint64() % 100; {
			case r < 70:
				n := rng.Uint64()%200 + 1
				at, err = d.Write(at, int64(rng.Uint64()%(span-n)), make([][]byte, n))
			case r < 90:
				_, at, err = read(d, at, int64(rng.Uint64()%span), 1)
			default:
				at, err = d.FlushAll(at)
			}
			if err == nil && op%50 == 0 {
				err = d.CheckInvariants()
			}
			if err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
		}
		if d.Stats().GCCycles == 0 {
			t.Fatalf("seed %d: GC never ran", seed)
		}
	}
}

// TestCheckInvariantsCatchesCorruption desyncs one piece of bookkeeping at
// a time on a device that has collected, staged and drained.
func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	build := func() *Device {
		d := newTestDevice(t)
		var at sim.Time
		for round := 0; round < 14; round++ {
			for off := int64(0); off < 384; off += 100 {
				done, err := d.Write(at, off, payloadsFor(off, 100))
				if err != nil {
					t.Fatal(err)
				}
				at = done
			}
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("healthy device: %v", err)
		}
		return d
	}
	mapped := func(d *Device, inStaging bool) int64 {
		for lpa := int64(0); lpa < d.totalSectors; lpa++ {
			if p := d.table.get(lpa); p != invalidPhys && (p >= d.stagedBase) == inStaging {
				return lpa
			}
		}
		t.Fatalf("no LPA mapped with staging=%v", inStaging)
		return -1
	}
	for name, corrupt := range map[string]func(d *Device){
		"double free":       func(d *Device) { d.freeSBs = append(d.freeSBs, d.freeSBs[0]) },
		"free but unlisted": func(d *Device) { d.freeSBs = d.freeSBs[1:] },
		"listed but in use": func(d *Device) { d.freeSBs = append(d.freeSBs, d.cur) },
		"valid count":       func(d *Device) { d.sbs[d.cur].validCount++ },
		"dead target":       func(d *Device) { p := d.table.get(mapped(d, false)); d.sbs[p/d.sbSectors].valid[p%d.sbSectors] = false },
		"wrong owner":       func(d *Device) { p := d.table.get(mapped(d, false)); d.sbs[p/d.sbSectors].lpa[p%d.sbSectors]++ },
		"unreferenced":      func(d *Device) { d.table.set(mapped(d, false), invalidPhys) },
		"staged orphan":     func(d *Device) { d.table.set(mapped(d, true), invalidPhys) },
	} {
		d := build()
		corrupt(d)
		if err := d.CheckInvariants(); err == nil {
			t.Errorf("%s: not detected", name)
		} else {
			t.Logf("%s: %v", name, err)
		}
	}
}

// BenchmarkFlush is a premature flush in steady state: one program unit
// written and flushed, walking the logical space sequentially and wrapping,
// so every superblock is wholly overwritten before GC picks it and a
// collection only erases. One op is the write and the flush; it allocates
// nothing.
func BenchmarkFlush(b *testing.B) {
	d, err := New(testGeo(), nand.DefaultLatencies(), testParams())
	if err != nil {
		b.Fatal(err)
	}
	pu := d.puSectors
	payloads := payloadsFor(0, pu)
	var at sim.Time
	var lba int64
	flush := func() {
		if _, err = d.Write(at, lba, payloads); err != nil {
			b.Fatal(err)
		}
		if at, err = d.Flush(at); err != nil {
			b.Fatal(err)
		}
		if lba += pu; lba+pu > d.TotalSectors() {
			lba = 0
		}
	}
	for i := int64(0); i < 2*d.TotalSectors()/pu; i++ { // two passes: GC and every freelist are primed
		flush()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flush()
	}
}

// TestGCSteadyStateAllocs pins that garbage collection reuses the device's
// scratch: after a warmup that has collected, staged and drained, a
// timing-only stream of random overwrites — collections with sub-unit
// remainders, staged flushes and staging drains among them — allocates
// nothing.
func TestGCSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed under -race")
	}
	d := newTestDevice(t)
	rng := sim.NewRand(3)
	span := uint64(d.TotalSectors() / 3)
	nilPayloads := make([][]byte, 200)
	var at sim.Time
	step := func() {
		var err error
		if rng.Uint64()%8 == 0 {
			at, err = d.FlushAll(at)
		} else {
			n := rng.Uint64()%200 + 1
			at, err = d.Write(at, int64(rng.Uint64()%(span-n)), nilPayloads[:n])
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for range 3000 {
		step()
	}
	before, drainsBefore := d.Stats(), d.staging.Stats().Collections
	allocs := testing.AllocsPerRun(2000, step)
	after, drains := d.Stats(), d.staging.Stats().Collections-drainsBefore
	if after.GCCycles == before.GCCycles || after.StagedSectors == before.StagedSectors || drains == 0 {
		t.Fatalf("the measured stream did not collect, stage and drain: %d collections, %d staged sectors, %d drains",
			after.GCCycles-before.GCCycles, after.StagedSectors-before.StagedSectors, drains)
	}
	if allocs != 0 {
		t.Errorf("a GC-heavy write stream allocates %.3f times per op, want 0", allocs)
	}
}
