package ftl

import (
	"bytes"
	"testing"
	"time"

	"github.com/conzone/conzone/internal/mapping"
	"github.com/conzone/conzone/internal/nand"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
)

// Test geometry: 2 channels x 2 chips, TLC, PU 96 KiB (24 sectors),
// superblock 384 sectors (1.5 MiB), 10 zones. Aligned zones are 512
// sectors with a 128-sector SLC tail. SLC staging: 4 superblocks of 128
// sectors.
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
		NumWriteBuffers: 2,
		L2PCacheBytes:   4 * units.KiB,
		L2PEntryBytes:   4,
		ChunkSectors:    128,
		Search:          Bitmap,
		AggregateZones:  true,
		AlignZones:      true,
	}
}

func newTestFTL(t *testing.T, mut ...func(*Params)) *FTL {
	t.Helper()
	p := testParams()
	for _, m := range mut {
		m(&p)
	}
	f, err := New(testGeo(), nand.DefaultLatencies(), p)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// payloadFor builds a recognisable 4 KiB payload for an LBA.
func payloadFor(lba int64) []byte {
	p := make([]byte, units.Sector)
	for i := range p {
		p[i] = byte((lba + int64(i)) % 251)
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

func verifyRead(t *testing.T, f *FTL, at sim.Time, lba, n int64) sim.Time {
	t.Helper()
	out, done, err := f.Read(at, lba, n)
	if err != nil {
		t.Fatalf("Read(%d,%d): %v", lba, n, err)
	}
	for i := int64(0); i < n; i++ {
		if !bytes.Equal(out[i], payloadFor(lba+i)) {
			t.Fatalf("payload mismatch at lba %d", lba+i)
		}
	}
	return done
}

func TestNewValidation(t *testing.T) {
	p := testParams()
	p.NumWriteBuffers = 0
	if _, err := New(testGeo(), nand.DefaultLatencies(), p); err == nil {
		t.Error("zero buffers accepted")
	}
	p = testParams()
	p.L2PCacheBytes = 0
	if _, err := New(testGeo(), nand.DefaultLatencies(), p); err == nil {
		t.Error("zero cache accepted")
	}
	p = testParams()
	p.ChunkSectors = 100 // 512 % 100 != 0
	if _, err := New(testGeo(), nand.DefaultLatencies(), p); err == nil {
		t.Error("non-dividing chunk accepted")
	}
	p = testParams()
	p.Search = Strategy(9)
	if _, err := New(testGeo(), nand.DefaultLatencies(), p); err == nil {
		t.Error("bad strategy accepted")
	}
	g := testGeo()
	g.SLCBlocks = 1
	g.MapBlocks = 1
	p = testParams()
	if _, err := New(g, nand.DefaultLatencies(), p); err == nil {
		t.Error("single SLC block accepted")
	}
}

func TestDimensions(t *testing.T) {
	f := newTestFTL(t)
	if f.NumZones() != 10 {
		t.Errorf("NumZones = %d", f.NumZones())
	}
	if f.ZoneCapSectors() != 512 {
		t.Errorf("ZoneCapSectors = %d (aligned)", f.ZoneCapSectors())
	}
	if f.TotalSectors() != 5120 {
		t.Errorf("TotalSectors = %d", f.TotalSectors())
	}
	if f.Describe() == "" {
		t.Error("Describe empty")
	}
	// Native (unaligned) zones match the superblock exactly.
	f2 := newTestFTL(t, func(p *Params) { p.AlignZones = false; p.ChunkSectors = 96 })
	if f2.ZoneCapSectors() != 384 {
		t.Errorf("native ZoneCapSectors = %d", f2.ZoneCapSectors())
	}
}

func TestStrategyString(t *testing.T) {
	if Bitmap.String() != "BITMAP" || Multiple.String() != "MULTIPLE" || Pinned.String() != "PINNED" {
		t.Error("strategy names wrong")
	}
}

func TestDirectPUWrite(t *testing.T) {
	f := newTestFTL(t)
	// One full PU written and explicitly flushed goes straight to the
	// normal block (Fig. 3 ①).
	if _, err := f.Write(0, 0, payloadsFor(0, 24)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Flush(0, 0); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.DirectPUs != 1 || st.StagedSectors != 0 || st.Combines != 0 {
		t.Errorf("stats = %+v", st)
	}
	verifyRead(t, f, 0, 0, 24)
	// Mapping should be zone-linear (aggregatable space).
	psn, ok := f.Table().Get(0)
	if !ok || psn != 0 {
		t.Errorf("psn = %d, %v", psn, ok)
	}
}

func TestPartialWriteStaged(t *testing.T) {
	f := newTestFTL(t)
	if _, err := f.Write(0, 0, payloadsFor(0, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Flush(0, 0); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.StagedSectors != 5 || st.DirectPUs != 0 {
		t.Errorf("stats = %+v", st)
	}
	// Mapping must be in the staged (non-aggregatable) PSN space.
	psn, ok := f.Table().Get(0)
	if !ok || psn < mapping.PSN(f.TotalSectors()) {
		t.Errorf("psn = %d should be staged", psn)
	}
	verifyRead(t, f, 0, 0, 5)
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestCombinePath(t *testing.T) {
	f := newTestFTL(t)
	// Stage 5 sectors, then complete the PU: the staged data must be read
	// back, invalidated, and merged into one direct program (Fig. 3 ③).
	if _, err := f.Write(0, 0, payloadsFor(0, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Flush(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(0, 5, payloadsFor(5, 19)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Flush(0, 0); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.Combines != 1 {
		t.Errorf("Combines = %d", st.Combines)
	}
	verifyRead(t, f, 0, 0, 24)
	// All 24 sectors now map zone-linear.
	for i := int64(0); i < 24; i++ {
		psn, ok := f.Table().Get(i)
		if !ok || psn != mapping.PSN(i) {
			t.Fatalf("psn[%d] = %d, %v", i, psn, ok)
		}
	}
	// Staged copies were invalidated.
	if f.Staging().Stats().Invalidated != 5 {
		t.Errorf("staging invalidated = %d", f.Staging().Stats().Invalidated)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestBufferConflictPrematureFlush(t *testing.T) {
	f := newTestFTL(t)
	// Zones 0 and 2 share buffer 0 (2 buffers, modulo mapping).
	if _, err := f.Write(0, 0, payloadsFor(0, 12)); err != nil {
		t.Fatal(err)
	}
	z2 := int64(2) * f.ZoneCapSectors()
	if _, err := f.Write(0, z2, payloadsFor(z2, 12)); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.PrematureFlushes != 1 {
		t.Errorf("PrematureFlushes = %d", st.PrematureFlushes)
	}
	if st.StagedSectors != 12 {
		t.Errorf("StagedSectors = %d", st.StagedSectors)
	}
	// Zone 1 uses buffer 1: no conflict.
	z1 := f.ZoneCapSectors()
	if _, err := f.Write(0, z1, payloadsFor(z1, 12)); err != nil {
		t.Fatal(err)
	}
	if f.Stats().PrematureFlushes != 1 {
		t.Error("non-conflicting write triggered a flush")
	}
	// All data readable regardless of where it sits.
	verifyRead(t, f, 0, 0, 12)
	verifyRead(t, f, 0, z1, 12)
	verifyRead(t, f, 0, z2, 12)
}

func TestFullBufferAutoFlush(t *testing.T) {
	f := newTestFTL(t)
	// Buffer capacity is one superpage = 96 sectors = 4 PUs.
	if _, err := f.Write(0, 0, payloadsFor(0, 96)); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.DirectPUs != 4 {
		t.Errorf("DirectPUs = %d, want 4", st.DirectPUs)
	}
	if st.StagedSectors != 0 {
		t.Errorf("StagedSectors = %d", st.StagedSectors)
	}
	verifyRead(t, f, 0, 0, 96)
}

func TestChunkAggregationOnWritePath(t *testing.T) {
	f := newTestFTL(t)
	// A chunk is 128 sectors but program units are 24, so the chunk's
	// last sectors are programmed by the PU covering [120,144). Writing
	// 144 sectors as full units completes chunk 0.
	if _, err := f.Write(0, 0, payloadsFor(0, 144)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Flush(0, 0); err != nil {
		t.Fatal(err)
	}
	if f.Table().Bits(0) != mapping.Chunk {
		t.Errorf("bits = %v, want chunk", f.Table().Bits(0))
	}
	base, g, psn, ok := f.Table().Effective(100)
	if !ok || base != 0 || g != mapping.Chunk || psn != 0 {
		t.Errorf("Effective = %d %v %d %v", base, g, psn, ok)
	}
}

func TestZoneAggregationWithAlignmentTail(t *testing.T) {
	f := newTestFTL(t)
	// Fill zone 0 completely: 384 head + 128 tail sectors. The tail goes
	// to reserved SLC but keeps zone-linear PSNs, so the zone aggregates.
	for off := int64(0); off < 512; off += 64 {
		if _, err := f.Write(0, off, payloadsFor(off, 64)); err != nil {
			t.Fatalf("write at %d: %v", off, err)
		}
	}
	if _, err := f.Flush(0, 0); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.TailSectors != 128 {
		t.Errorf("TailSectors = %d", st.TailSectors)
	}
	if f.Table().Bits(0) != mapping.Zone {
		t.Errorf("bits = %v, want zone aggregation", f.Table().Bits(0))
	}
	verifyRead(t, f, 0, 0, 512)
	z, _ := f.Zones().Zone(0)
	if z.State.String() != "FULL" {
		t.Errorf("zone state = %v", z.State)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestReadUnwritten(t *testing.T) {
	f := newTestFTL(t)
	out, _, err := f.Read(0, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range out {
		if p != nil {
			t.Errorf("unwritten sector %d has payload", i)
		}
	}
}

func TestReadFromWriteBuffer(t *testing.T) {
	f := newTestFTL(t)
	if _, err := f.Write(0, 0, payloadsFor(0, 10)); err != nil {
		t.Fatal(err)
	}
	// No flush: data only in the buffer.
	verifyRead(t, f, 0, 0, 10)
	if f.Stats().BufferReads != 10 {
		t.Errorf("BufferReads = %d", f.Stats().BufferReads)
	}
}

func TestWriteValidation(t *testing.T) {
	f := newTestFTL(t)
	if _, err := f.Write(0, 5, payloadsFor(5, 1)); err == nil {
		t.Error("write off the write pointer accepted")
	}
	if _, err := f.Write(0, -1, payloadsFor(0, 1)); err == nil {
		t.Error("negative lba accepted")
	}
	if _, _, err := f.Read(0, f.TotalSectors(), 1); err == nil {
		t.Error("read beyond namespace accepted")
	}
}

func TestCacheHitAvoidsMapFetch(t *testing.T) {
	f := newTestFTL(t)
	if _, err := f.Write(0, 0, payloadsFor(0, 24)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Flush(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Read(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	fetchesAfterMiss := f.Stats().MapFetches
	if fetchesAfterMiss != 1 {
		t.Fatalf("MapFetches = %d after first read", fetchesAfterMiss)
	}
	if _, _, err := f.Read(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if f.Stats().MapFetches != fetchesAfterMiss {
		t.Error("second read should hit the cache")
	}
	cs := f.Cache().Stats()
	if cs.Hits < 1 || cs.Misses < 1 {
		t.Errorf("cache stats = %+v", cs)
	}
}

func TestFetchCostBitmapVsMultiple(t *testing.T) {
	run := func(s Strategy) int64 {
		f := newTestFTL(t, func(p *Params) { p.Search = s })
		// Page-granularity data: stage a partial PU.
		if _, err := f.Write(0, 0, payloadsFor(0, 5)); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Flush(0, 0); err != nil {
			t.Fatal(err)
		}
		if _, _, err := f.Read(0, 0, 1); err != nil {
			t.Fatal(err)
		}
		return f.Stats().MapFetchReads
	}
	if got := run(Bitmap); got != 1 {
		t.Errorf("BITMAP fetch reads = %d, want 1", got)
	}
	// Page-granularity entry costs three probes under MULTIPLE.
	if got := run(Multiple); got != 3 {
		t.Errorf("MULTIPLE fetch reads = %d, want 3", got)
	}
	if got := run(Pinned); got != 1 {
		t.Errorf("PINNED fetch reads = %d, want 1", got)
	}
}

func TestMultipleFetchCostByGranularity(t *testing.T) {
	f := newTestFTL(t, func(p *Params) { p.Search = Multiple })
	// Chunk-aggregated data: one chunk fully written (see aggregation
	// test for why 144 sectors).
	if _, err := f.Write(0, 0, payloadsFor(0, 144)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Flush(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Read(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if got := f.Stats().MapFetchReads; got != 2 {
		t.Errorf("chunk-level MULTIPLE fetch reads = %d, want 2", got)
	}
}

func TestPinnedStrategyPinsAggregates(t *testing.T) {
	f := newTestFTL(t, func(p *Params) { p.Search = Pinned })
	if _, err := f.Write(0, 0, payloadsFor(0, 144)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Flush(0, 0); err != nil {
		t.Fatal(err)
	}
	// The chunk entry was inserted pinned at aggregation time: the first
	// read should hit the cache with no map fetch.
	if _, _, err := f.Read(0, 64, 1); err != nil {
		t.Fatal(err)
	}
	if f.Stats().MapFetches != 0 {
		t.Errorf("MapFetches = %d, want 0 (pinned)", f.Stats().MapFetches)
	}
}

func TestResetZone(t *testing.T) {
	f := newTestFTL(t)
	// Mix of direct, staged and tail data.
	for off := int64(0); off < 512; off += 64 {
		if _, err := f.Write(0, off, payloadsFor(off, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Flush(0, 0); err != nil {
		t.Fatal(err)
	}
	erasesBefore := f.Array().Counters().Erases
	done, err := f.ResetZone(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 {
		t.Error("reset must take time")
	}
	if f.Array().Counters().Erases-erasesBefore != 4 {
		t.Errorf("erases = %d, want 4 (one per chip)", f.Array().Counters().Erases-erasesBefore)
	}
	out, _, err := f.Read(done, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range out {
		if p != nil {
			t.Error("data survived reset")
		}
	}
	// The zone is writable again from the start.
	if _, err := f.Write(done, 0, payloadsFor(0, 24)); err != nil {
		t.Errorf("write after reset: %v", err)
	}
	if f.Stats().ZoneResets != 1 {
		t.Error("reset not counted")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestResetUnboundZone(t *testing.T) {
	f := newTestFTL(t)
	// Resetting an empty zone erases nothing but succeeds.
	if _, err := f.ResetZone(0, 3); err != nil {
		t.Fatal(err)
	}
	if f.Array().Counters().Erases != 0 {
		t.Error("erase on unbound zone")
	}
}

func TestRebindAfterReset(t *testing.T) {
	f := newTestFTL(t)
	if _, err := f.Write(0, 0, payloadsFor(0, 96)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ResetZone(0, 0); err != nil {
		t.Fatal(err)
	}
	// Write the zone again; it must get a (possibly different) superblock
	// and data must verify.
	if _, err := f.Write(0, 0, payloadsFor(0, 96)); err != nil {
		t.Fatal(err)
	}
	verifyRead(t, f, 0, 0, 96)
}

func TestFinishAndCloseZone(t *testing.T) {
	f := newTestFTL(t)
	if _, err := f.Write(0, 0, payloadsFor(0, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.CloseZone(0, 0); err != nil {
		t.Fatal(err)
	}
	z, _ := f.Zones().Zone(0)
	if z.State.String() != "CLOSED" {
		t.Errorf("state = %v", z.State)
	}
	// The close drained the buffer, so the data is on media.
	if f.Stats().StagedSectors != 10 {
		t.Errorf("StagedSectors = %d", f.Stats().StagedSectors)
	}
	if _, err := f.FinishZone(0, 0); err != nil {
		t.Fatal(err)
	}
	z, _ = f.Zones().Zone(0)
	if z.State.String() != "FULL" {
		t.Errorf("state = %v", z.State)
	}
	verifyRead(t, f, 0, 0, 10)
}

func TestOpenZoneLimit(t *testing.T) {
	f := newTestFTL(t, func(p *Params) { p.MaxOpenZones = 2; p.MaxActiveZones = 4 })
	zc := f.ZoneCapSectors()
	if _, err := f.Write(0, 0, payloadsFor(0, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(0, zc, payloadsFor(zc, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(0, 2*zc, payloadsFor(2*zc, 1)); err == nil {
		t.Error("third open zone accepted with MaxOpen=2")
	}
}

func TestWAFSequentialIsOne(t *testing.T) {
	f := newTestFTL(t, func(p *Params) { p.AlignZones = false; p.ChunkSectors = 96 })
	// Pure sequential writes in full-buffer multiples: no staging, no
	// premature flush, so NAND bytes == host bytes.
	if _, err := f.Write(0, 0, payloadsFor(0, 384)); err != nil {
		t.Fatal(err)
	}
	if got := f.WAF(); got != 1.0 {
		t.Errorf("WAF = %v, want exactly 1", got)
	}
}

func TestWAFWithConflicts(t *testing.T) {
	f := newTestFTL(t)
	// Alternate 12-sector writes between zones 0 and 2 (same buffer):
	// every write evicts the other zone's partial data to SLC, and every
	// second write of a zone combines. WAF must exceed 1.
	zc := f.ZoneCapSectors()
	wp0, wp2 := int64(0), 2*zc
	for i := 0; i < 8; i++ {
		if _, err := f.Write(0, wp0, payloadsFor(wp0, 12)); err != nil {
			t.Fatal(err)
		}
		wp0 += 12
		if _, err := f.Write(0, wp2, payloadsFor(wp2, 12)); err != nil {
			t.Fatal(err)
		}
		wp2 += 12
	}
	if got := f.WAF(); got <= 1.0 {
		t.Errorf("WAF = %v, want > 1 under buffer conflicts", got)
	}
	verifyRead(t, f, 0, 0, wp0)
	verifyRead(t, f, 0, 2*zc, wp2-2*zc)
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestStagingGCUnderPressure(t *testing.T) {
	f := newTestFTL(t)
	// Staging holds 512 sectors across 4 superblocks. Generate far more
	// staged traffic than that by alternating partial writes between
	// conflicting zones; combines invalidate staged sectors, so GC can
	// always reclaim.
	zc := f.ZoneCapSectors()
	wp0, wp2 := int64(0), 2*zc
	var at sim.Time
	for i := 0; i < 30; i++ {
		d, err := f.Write(at, wp0, payloadsFor(wp0, 12))
		if err != nil {
			t.Fatalf("iter %d zone0: %v", i, err)
		}
		at = d
		wp0 += 12
		d, err = f.Write(at, wp2, payloadsFor(wp2, 12))
		if err != nil {
			t.Fatalf("iter %d zone2: %v", i, err)
		}
		at = d
		wp2 += 12
	}
	verifyRead(t, f, at, 0, wp0)
	verifyRead(t, f, at, 2*zc, wp2-2*zc)
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestTailContiguityBrokenByInterleaving(t *testing.T) {
	f := newTestFTL(t)
	zc := f.ZoneCapSectors() // 512
	// Fill zone 0's head region (384) and zone 1's head region, then
	// interleave their tails so the staging runs alternate.
	if _, err := f.Write(0, 0, payloadsFor(0, 384)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(0, zc, payloadsFor(zc, 384)); err != nil {
		t.Fatal(err)
	}
	wp0, wp1 := int64(384), zc+384
	for i := 0; i < 8; i++ {
		if _, err := f.Write(0, wp0, payloadsFor(wp0, 16)); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Flush(0, 0); err != nil {
			t.Fatal(err)
		}
		wp0 += 16
		if _, err := f.Write(0, wp1, payloadsFor(wp1, 16)); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Flush(0, 1); err != nil {
			t.Fatal(err)
		}
		wp1 += 16
	}
	// Both zones are full; at most one of them can have a contiguous
	// tail, so at least one must NOT be zone-aggregated. Either way all
	// data verifies.
	agg0 := f.Table().Bits(0) == mapping.Zone
	agg1 := f.Table().Bits(zc) == mapping.Zone
	if agg0 && agg1 {
		t.Error("both interleaved tails aggregated; contiguity tracking broken")
	}
	verifyRead(t, f, 0, 0, 512)
	verifyRead(t, f, 0, zc, 512)
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestWriteTimingThrottledByFlush(t *testing.T) {
	f := newTestFTL(t)
	// The flush pipeline admits a few buffer drains in flight; beyond
	// that, writes must wait for media programs. Issue many back-to-back
	// buffer-filling writes at t=0 and check that the later ones are
	// pushed into the future at roughly the media program cadence.
	var at sim.Time
	var accepts []sim.Time
	// Zones 0 and 2 share buffer 0: eight buffer fills drain through one
	// flush pipeline.
	for _, zone := range []int64{0, 2} {
		base := zone * f.ZoneCapSectors()
		for i := int64(0); i < 4; i++ {
			lba := base + i*96
			d, err := f.Write(at, lba, payloadsFor(lba, 96))
			if err != nil {
				t.Fatal(err)
			}
			accepts = append(accepts, d)
			at = d
		}
	}
	last := accepts[len(accepts)-1]
	if last <= accepts[0] {
		t.Errorf("writes never throttled: %v", accepts)
	}
	// Eight superpages at ~937.5us program cadence minus the pipeline
	// depth: the last accept must sit well into the millisecond range.
	if last < sim.Time(2*time.Millisecond) {
		t.Errorf("throttling too weak: %v", accepts)
	}
}

func TestReadTimingChargesMedia(t *testing.T) {
	f := newTestFTL(t)
	if _, err := f.Write(0, 0, payloadsFor(0, 96)); err != nil {
		t.Fatal(err)
	}
	start := sim.Time(1_000_000_000) // after all writes quiesced
	_, done, err := f.Read(start, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	lat := done.Sub(start)
	// Miss path: 1 map read (SLC, 20us) + TLC page read (32us) + transfers.
	if lat < 50_000 || lat > 200_000 {
		t.Errorf("cold 16KiB read latency = %v, want ~60us", lat)
	}
}

func TestSequentialFillAllZones(t *testing.T) {
	f := newTestFTL(t, func(p *Params) { p.MaxOpenZones = 6; p.MaxActiveZones = 6 })
	zc := f.ZoneCapSectors()
	var at sim.Time
	// Fill 2 zones completely (alignment tails live in SLC permanently,
	// and the small test geometry only has room for two of them) and 2
	// further zones' head regions.
	for zone := int64(0); zone < 4; zone++ {
		base := zone * zc
		limit := zc
		if zone >= 2 {
			limit = 384 // head region only
		}
		for off := int64(0); off < limit; off += 64 {
			d, err := f.Write(at, base+off, payloadsFor(base+off, 64))
			if err != nil {
				t.Fatalf("zone %d off %d: %v", zone, off, err)
			}
			at = d
		}
	}
	if _, err := f.FlushAll(at); err != nil {
		t.Fatal(err)
	}
	for zone := int64(0); zone < 2; zone++ {
		verifyRead(t, f, at, zone*zc, zc)
	}
	for zone := int64(2); zone < 4; zone++ {
		verifyRead(t, f, at, zone*zc, 384)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestWearReport(t *testing.T) {
	f := newTestFTL(t)
	var at sim.Time
	// Write and reset a zone twice: its superblocks gain erase counts.
	for round := 0; round < 2; round++ {
		d, err := f.Write(at, 0, payloadsFor(0, 96))
		if err != nil {
			t.Fatal(err)
		}
		at = d
		d, err = f.ResetZone(at, 0)
		if err != nil {
			t.Fatal(err)
		}
		at = d
	}
	w := f.Wear()
	if len(w.NormalSB) != 10 || len(w.SLCSB) != 4 {
		t.Fatalf("wear sizes: %d normal, %d SLC", len(w.NormalSB), len(w.SLCSB))
	}
	var total float64
	for _, v := range w.NormalSB {
		total += v
	}
	if total != 2 { // two superblock erases spread over the pool
		t.Errorf("total normal wear = %v, want 2", total)
	}
	max, min := MaxMin(w.NormalSB)
	if max < min {
		t.Error("MaxMin inverted")
	}
	if mx, mn := MaxMin(nil); mx != 0 || mn != 0 {
		t.Error("MaxMin of empty series")
	}
}
