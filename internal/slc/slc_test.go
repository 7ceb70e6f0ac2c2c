package slc

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"github.com/conzone/conzone/internal/nand"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
)

// testRegion: 4 chips, SLC blocks 0..3 of each chip as 4 superblocks of
// 8 pages x 4 sectors x 4 chips = 128 sectors each.
func testRegion(t testing.TB) (*Region, *nand.Array) {
	t.Helper()
	g := nand.Geometry{
		Channels: 2, ChipsPerChannel: 2, BlocksPerChip: 16,
		PagesPerBlock: 24, SLCPagesPerBlock: 8, PageSize: 16 * units.KiB,
		SLCBlocks: 4, MapBlocks: 2, NormalMedia: nand.TLC,
		ProgramUnit: 96 * units.KiB, SLCProgramUnit: 4 * units.KiB,
		ChannelMiBps: 3200,
	}
	arr, err := nand.NewArray(g, nand.DefaultLatencies(), sim.NewEngine())
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRegion(arr, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	return r, arr
}

func sectorPayload(b byte) []byte { return bytes.Repeat([]byte{b}, int(units.Sector)) }

func TestNewRegionValidation(t *testing.T) {
	_, arr := testRegion(t)
	if _, err := NewRegion(nil, []int{0, 1}); err == nil {
		t.Error("nil array accepted")
	}
	if _, err := NewRegion(arr, []int{0}); err == nil {
		t.Error("single superblock accepted")
	}
	if _, err := NewRegion(arr, []int{0, 99}); err == nil {
		t.Error("out-of-range block accepted")
	}
	if _, err := NewRegion(arr, []int{0, 8}); err == nil {
		t.Error("non-SLC block accepted")
	}
	if _, err := NewRegion(arr, []int{0, 0}); err == nil {
		t.Error("duplicate block accepted")
	}
}

func TestRegionDimensions(t *testing.T) {
	r, _ := testRegion(t)
	if r.SuperblockCount() != 4 {
		t.Errorf("SuperblockCount = %d", r.SuperblockCount())
	}
	if r.SectorsPerSuperblock() != 128 {
		t.Errorf("SectorsPerSuperblock = %d", r.SectorsPerSuperblock())
	}
	if r.TotalSectors() != 512 {
		t.Errorf("TotalSectors = %d", r.TotalSectors())
	}
	if r.FreeSuperblocks() != 4 {
		t.Errorf("FreeSuperblocks = %d", r.FreeSuperblocks())
	}
}

func TestAddrOfPageMajorStriping(t *testing.T) {
	r, _ := testRegion(t)
	// Page-major layout: the first four indices fill chip 0's page 0...
	for s := int64(0); s < 4; s++ {
		a, err := r.AddrOf(s)
		if err != nil {
			t.Fatal(err)
		}
		if a.Chip != 0 || a.Page != 0 || a.Sector != int(s) {
			t.Errorf("AddrOf(%d) = %+v", s, a)
		}
	}
	// ...and the next page goes to the next chip.
	a4, _ := r.AddrOf(4)
	if a4.Chip != 1 || a4.Page != 0 || a4.Sector != 0 {
		t.Errorf("AddrOf(4) = %+v", a4)
	}
	// After one page per chip, the stripe wraps to chip 0 page 1.
	a16, _ := r.AddrOf(16)
	if a16.Chip != 0 || a16.Page != 1 || a16.Sector != 0 {
		t.Errorf("AddrOf(16) = %+v", a16)
	}
	// Superblock 1 uses block index 1.
	aSB1, _ := r.AddrOf(128)
	if aSB1.Block != 1 || aSB1.Chip != 0 || aSB1.Page != 0 || aSB1.Sector != 0 {
		t.Errorf("superblock 1 start = %+v", aSB1)
	}
	if _, err := r.AddrOf(-1); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := r.AddrOf(512); err == nil {
		t.Error("out-of-range index accepted")
	}
}

func TestAppendBasics(t *testing.T) {
	r, arr := testRegion(t)
	idxs, _, done, err := r.Append(0, []Write{
		{LPA: 10, Payload: sectorPayload(1)},
		{LPA: 11, Payload: sectorPayload(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(idxs) != 2 || idxs[0] != 0 || idxs[1] != 1 {
		t.Errorf("idxs = %v", idxs)
	}
	if done <= 0 {
		t.Error("append must take time")
	}
	for i, idx := range idxs {
		if !r.IsValid(idx) {
			t.Errorf("idx %d not valid", idx)
		}
		lpa, err := r.LPAAt(idx)
		if err != nil || lpa != int64(10+i) {
			t.Errorf("LPAAt(%d) = %d, %v", idx, lpa, err)
		}
		if !bytes.Equal(r.Payload(idx), sectorPayload(byte(i+1))) {
			t.Errorf("payload mismatch at %d", idx)
		}
	}
	if arr.Counters().PartialPrograms != 2 {
		t.Error("partial programs not charged")
	}
	if r.Stats().Staged != 2 {
		t.Errorf("staged = %d", r.Stats().Staged)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestAppendEmpty(t *testing.T) {
	r, _ := testRegion(t)
	idxs, _, done, err := r.Append(5, nil)
	if err != nil || idxs != nil || done != 5 {
		t.Errorf("empty append = %v, %v, %v", idxs, done, err)
	}
}

func TestAppendRejectsBadPayload(t *testing.T) {
	r, _ := testRegion(t)
	if _, _, _, err := r.Append(0, []Write{{LPA: 1, Payload: []byte{1, 2}}}); err == nil {
		t.Error("short payload accepted")
	}
}

func TestAppendParallelism(t *testing.T) {
	r, _ := testRegion(t)
	// 4 sectors stripe across 4 chips: total time ~ one tPROG, not four.
	_, _, done, err := r.Append(0, []Write{{LPA: 1}, {LPA: 2}, {LPA: 3}, {LPA: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if done > sim.Time(100*1000) { // 100 us in ns; tPROG(SLC)=75us
		t.Errorf("striped append too slow: %v", done)
	}
}

func TestAppendCrossesSuperblocks(t *testing.T) {
	r, _ := testRegion(t)
	ws := make([]Write, 200) // spans sb 0 (128) into sb 1
	idxs, _, _, err := r.Append(0, ws)
	if err != nil {
		t.Fatal(err)
	}
	if idxs[127] != 127 || idxs[128] != 128 {
		t.Errorf("boundary idxs = %d, %d", idxs[127], idxs[128])
	}
	if r.FreeSuperblocks() != 2 {
		t.Errorf("free = %d", r.FreeSuperblocks())
	}
	if err := r.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestHasSpaceReserve(t *testing.T) {
	r, _ := testRegion(t)
	// 4 free superblocks of 128 = 512, minus 128 reserve = 384 appendable.
	if !r.HasSpace(384) {
		t.Error("HasSpace(384) = false")
	}
	if r.HasSpace(385) {
		t.Error("HasSpace(385) = true; reserve not kept")
	}
	if _, _, _, err := r.Append(0, make([]Write, 385)); !errors.Is(err, ErrNoSpace) {
		t.Errorf("append beyond reserve = %v", err)
	}
}

func TestInvalidate(t *testing.T) {
	r, _ := testRegion(t)
	idxs, _, _, err := r.Append(0, []Write{{LPA: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Invalidate(idxs[0]); err != nil {
		t.Fatal(err)
	}
	if r.IsValid(idxs[0]) {
		t.Error("still valid after invalidate")
	}
	if err := r.Invalidate(idxs[0]); err == nil {
		t.Error("double invalidate accepted")
	}
	if _, err := r.LPAAt(idxs[0]); err == nil {
		t.Error("LPAAt of dead sector accepted")
	}
	if err := r.Invalidate(-1); err == nil {
		t.Error("bad index accepted")
	}
	if r.Stats().Invalidated != 1 {
		t.Error("invalidation not counted")
	}
}

func TestValidCount(t *testing.T) {
	r, _ := testRegion(t)
	idxs, _, _, _ := r.Append(0, make([]Write, 10))
	if r.ValidCount(0) != 10 {
		t.Errorf("ValidCount = %d", r.ValidCount(0))
	}
	_ = r.Invalidate(idxs[3])
	if r.ValidCount(0) != 9 {
		t.Errorf("ValidCount = %d", r.ValidCount(0))
	}
	if r.ValidCount(-1) != 0 || r.ValidCount(99) != 0 {
		t.Error("out-of-range superblock should count 0")
	}
}

func TestReadSectorsGroupsPages(t *testing.T) {
	r, arr := testRegion(t)
	// Stage 8 sectors; with the page-major layout they fill two whole
	// pages on two chips -> 2 page senses cover all of them.
	idxs, _, at, err := r.Append(0, make([]Write, 8))
	if err != nil {
		t.Fatal(err)
	}
	before := arr.Counters().PageReads
	if _, err := r.ReadSectors(at, idxs); err != nil {
		t.Fatal(err)
	}
	if got := arr.Counters().PageReads - before; got != 2 {
		t.Errorf("page reads = %d, want 2 (page-grouped)", got)
	}
	if _, err := r.ReadSectors(at, []int64{-1}); err == nil {
		t.Error("bad index accepted")
	}
}

func TestAppendUsesFullPagePrograms(t *testing.T) {
	r, arr := testRegion(t)
	// 12 sectors from a page boundary = 3 full-page programs, no partials.
	if _, _, _, err := r.Append(0, make([]Write, 12)); err != nil {
		t.Fatal(err)
	}
	c := arr.Counters()
	if c.PageProgramsSLC != 3 || c.PartialPrograms != 0 {
		t.Errorf("counters = %+v, want 3 page programs", c)
	}
	// A 2-sector tail uses partial programs.
	if _, _, _, err := r.Append(0, make([]Write, 2)); err != nil {
		t.Fatal(err)
	}
	c = arr.Counters()
	if c.PartialPrograms != 2 {
		t.Errorf("partials = %d, want 2", c.PartialPrograms)
	}
	// The next append starts mid-page: 2 partials complete the page,
	// then full pages resume.
	if _, _, _, err := r.Append(0, make([]Write, 6)); err != nil {
		t.Fatal(err)
	}
	c = arr.Counters()
	if c.PartialPrograms != 4 || c.PageProgramsSLC != 4 {
		t.Errorf("counters = %+v, want 4 partials + 4 page programs", c)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestAppendFullPageParallelism(t *testing.T) {
	r, _ := testRegion(t)
	// 16 sectors = 4 pages on 4 chips: wall time ~ one tPROG (75us), not
	// four.
	_, _, done, err := r.Append(0, make([]Write, 16))
	if err != nil {
		t.Fatal(err)
	}
	if done > sim.Time(100*1000) {
		t.Errorf("parallel page programs too slow: %v", done)
	}
}

func TestVictimSelection(t *testing.T) {
	r, _ := testRegion(t)
	if r.Victim() != -1 {
		t.Error("fresh region should have no victim")
	}
	// Fill sb 0 fully and sb 1 partially; invalidate most of sb 0.
	idxs, _, _, err := r.Append(0, make([]Write, 130))
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range idxs[:100] {
		_ = r.Invalidate(idx)
	}
	// sb0 has 28 valid, sb1 (current) excluded -> victim is 0.
	if v := r.Victim(); v != 0 {
		t.Errorf("Victim = %d", v)
	}
}

type recordingRelocator struct {
	moves map[int64]int64 // lpa -> new idx
}

func (rr *recordingRelocator) Relocate(lpa, oldIdx, newIdx int64) error {
	if rr.moves == nil {
		rr.moves = make(map[int64]int64)
	}
	rr.moves[lpa] = newIdx
	return nil
}

func TestCollectMigratesAndErases(t *testing.T) {
	r, arr := testRegion(t)
	// Fill sb0 with payloads, spill into sb1 so sb0 is not current.
	ws := make([]Write, 130)
	for i := range ws {
		ws[i] = Write{LPA: int64(1000 + i), Payload: sectorPayload(byte(i))}
	}
	idxs, _, at, err := r.Append(0, ws)
	if err != nil {
		t.Fatal(err)
	}
	// Kill all but 3 sectors of sb0.
	for _, idx := range idxs[:125] {
		_ = r.Invalidate(idx)
	}
	rel := &recordingRelocator{}
	done, err := r.Collect(at, 0, rel)
	if err != nil {
		t.Fatal(err)
	}
	if done <= at {
		t.Error("collect must take time")
	}
	if len(rel.moves) != 3 {
		t.Fatalf("moves = %v", rel.moves)
	}
	// Survivors keep their payloads at the new location.
	for i := 125; i < 128; i++ {
		lpa := int64(1000 + i)
		newIdx, ok := rel.moves[lpa]
		if !ok {
			t.Fatalf("lpa %d not relocated", lpa)
		}
		if !r.IsValid(newIdx) {
			t.Errorf("relocated %d not valid", newIdx)
		}
		if !bytes.Equal(r.Payload(newIdx), sectorPayload(byte(i))) {
			t.Errorf("payload lost for lpa %d", lpa)
		}
	}
	if r.FreeSuperblocks() != 3 {
		t.Errorf("free = %d", r.FreeSuperblocks())
	}
	if r.ValidCount(0) != 0 {
		t.Error("victim still has valid sectors")
	}
	if arr.Counters().Erases != 4 { // one block per chip
		t.Errorf("erases = %d", arr.Counters().Erases)
	}
	st := r.Stats()
	if st.Migrated != 3 || st.Collections != 1 || st.Erased != 1 {
		t.Errorf("stats = %+v", st)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if err := arr.CheckSlabRefs(); err != nil {
		t.Error(err)
	}
}

func TestCollectRejections(t *testing.T) {
	r, _ := testRegion(t)
	if _, err := r.Collect(0, -1, nil); err == nil {
		t.Error("bad victim accepted")
	}
	if _, err := r.Collect(0, 1, nil); err == nil {
		t.Error("free victim accepted")
	}
	_, _, _, err := r.Append(0, []Write{{LPA: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Collect(0, 0, nil); err == nil {
		t.Error("current superblock accepted as victim")
	}
}

func TestEnsureSpaceCollects(t *testing.T) {
	r, _ := testRegion(t)
	// Fill three superblocks' worth; invalidate everything in sb 0 and 1.
	idxs, _, at, err := r.Append(0, make([]Write, 384))
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range idxs[:256] {
		_ = r.Invalidate(idx)
	}
	if r.HasSpace(200) {
		t.Fatal("setup: space should be exhausted")
	}
	done, err := r.EnsureSpace(at, 200, nil)
	if err != nil {
		t.Fatal(err)
	}
	if done < at {
		t.Error("time went backwards")
	}
	if !r.HasSpace(200) {
		t.Error("EnsureSpace did not create space")
	}
	if r.Stats().Collections == 0 {
		t.Error("no collections ran")
	}
	if err := r.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestEnsureSpaceFailsWhenAllValid(t *testing.T) {
	r, _ := testRegion(t)
	_, _, at, err := r.Append(0, make([]Write, 384)) // all valid
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.EnsureSpace(at, 200, nil); !errors.Is(err, ErrNoSpace) {
		t.Errorf("EnsureSpace = %v, want ErrNoSpace", err)
	}
}

// Property: random stage/invalidate/collect sequences keep the region's
// accounting consistent and never lose a valid sector's LPA.
func TestRegionInvariantsProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		r, _ := testRegionQuick()
		live := make(map[int64]int64) // idx -> lpa
		var at sim.Time
		rel := relocFunc(func(lpa, oldIdx, newIdx int64) error {
			if live[oldIdx] != lpa {
				return errors.New("bad relocate")
			}
			delete(live, oldIdx)
			live[newIdx] = lpa
			return nil
		})
		for i, op := range ops {
			switch op % 3 {
			case 0: // stage a sector
				lpa := int64(i)
				if !r.HasSpace(1) {
					if _, err := r.EnsureSpace(at, 1, rel); err != nil {
						continue
					}
				}
				idxs, _, done, err := r.Append(at, []Write{{LPA: lpa}})
				if err != nil {
					return false
				}
				at = done
				live[idxs[0]] = lpa
			case 1: // invalidate a random live sector
				for idx := range live {
					if err := r.Invalidate(idx); err != nil {
						return false
					}
					delete(live, idx)
					break
				}
			case 2: // collect
				if v := r.Victim(); v >= 0 {
					done, err := r.Collect(at, v, rel)
					if err != nil {
						return false
					}
					at = done
				}
			}
			if r.CheckInvariants() != nil {
				return false
			}
			for idx, lpa := range live {
				got, err := r.LPAAt(idx)
				if err != nil || got != lpa {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

type relocFunc func(lpa, oldIdx, newIdx int64) error

func (f relocFunc) Relocate(lpa, oldIdx, newIdx int64) error { return f(lpa, oldIdx, newIdx) }

func testRegionQuick() (*Region, *nand.Array) {
	g := nand.Geometry{
		Channels: 2, ChipsPerChannel: 1, BlocksPerChip: 8,
		PagesPerBlock: 6, SLCPagesPerBlock: 2, PageSize: 16 * units.KiB,
		SLCBlocks: 3, MapBlocks: 1, NormalMedia: nand.TLC,
		ProgramUnit: 96 * units.KiB, SLCProgramUnit: 4 * units.KiB,
		ChannelMiBps: 3200,
	}
	arr, err := nand.NewArray(g, nand.DefaultLatencies(), sim.NewEngine())
	if err != nil {
		panic(err)
	}
	r, err := NewRegion(arr, []int{0, 1, 2})
	if err != nil {
		panic(err)
	}
	return r, arr
}

// BenchmarkCollect is the staging GC's cost per migrated sector. The region
// cycles in a steady state: every superblock but the open one and the GC
// reserve is full of live, stamped sectors, and each collection moves one
// victim's sectors to the write point and frees it, so the next victim is
// full again. An op is one collection; ns/sector is per migrated sector.
func BenchmarkCollect(b *testing.B) {
	r, arr := testRegion(b)
	ws := make([]Write, 2*r.SectorsPerSuperblock())
	for i := range ws {
		ws[i] = Write{LPA: int64(i), Payload: sectorPayload(byte(i))}
	}
	_, _, at, err := r.Append(0, ws)
	if err != nil {
		b.Fatal(err)
	}
	collect := func() {
		if at, err = r.Collect(at, r.Victim(), nil); err != nil {
			b.Fatal(err)
		}
	}
	collect() // one cycle through the free list before timing
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		collect()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*r.SectorsPerSuperblock()), "ns/sector")
	b.StopTimer()
	if err := arr.CheckSlabRefs(); err != nil {
		b.Fatal(err)
	}
}
