package nand

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
)

func sectorOf(b byte) []byte {
	s := make([]byte, units.Sector)
	for i := range s {
		s[i] = b
	}
	return s
}

// TestSlabEraseReleasesPayloads pins the erase release path: after a block
// erase every sector of the block must read back as unwritten with no
// recorded payload, however the media was programmed.
func TestSlabEraseReleasesPayloads(t *testing.T) {
	a := newTestArray(t)
	g := a.Geometry()
	block := g.FirstNormalBlock()
	if _, _, err := a.ProgramPU(0, 0, block, 0, puPayload(g, 0xAB)); err != nil {
		t.Fatal(err)
	}
	base := g.PPAOf(Addr{Chip: 0, Block: block})
	if a.Payload(base) == nil {
		t.Fatal("programmed sector has no payload")
	}
	if _, err := a.Erase(0, 0, block); err != nil {
		t.Fatal(err)
	}
	nsect := int64(g.ProgramUnit / units.Sector)
	for i := int64(0); i < nsect; i++ {
		ppa := base + PPA(i)
		if a.IsWritten(ppa) {
			t.Fatalf("sector %d still written after erase", i)
		}
		if a.Payload(ppa) != nil {
			t.Fatalf("sector %d still holds a payload after erase", i)
		}
	}
}

// TestSlabNoAliasingAfterReuse is the pool-reuse aliasing check: program A,
// erase its block (freeing A's slabs back to the pool), program B elsewhere
// (which may reuse A's slabs) — reading A's old PPA must not surface B's
// data, and a PayloadCopy of A taken before the erase must keep A's bytes.
// Then the same with a shared slab: while one holder of a slab is live, a
// program that draws from the pool never gets it, and once both holders
// are erased the next program reuses it without either old PPA reading it.
func TestSlabNoAliasingAfterReuse(t *testing.T) {
	a := newTestArray(t)
	g := a.Geometry()
	blockA := g.FirstNormalBlock()
	blockB := blockA + 1

	if _, _, err := a.ProgramPU(0, 0, blockA, 0, puPayload(g, 0xAA)); err != nil {
		t.Fatal(err)
	}
	ppaA := g.PPAOf(Addr{Chip: 0, Block: blockA})
	escaped := a.PayloadCopy(ppaA)
	if !bytes.Equal(escaped, sectorOf(0xAA)) {
		t.Fatal("PayloadCopy does not match programmed data")
	}

	// Erase A's block: its slabs return to the pool.
	if _, err := a.Erase(0, 0, blockA); err != nil {
		t.Fatal(err)
	}
	// Program B; the pool will hand B the recycled slabs.
	if _, _, err := a.ProgramPU(0, 0, blockB, 0, puPayload(g, 0xBB)); err != nil {
		t.Fatal(err)
	}

	if p := a.Payload(ppaA); p != nil {
		t.Fatalf("A's erased PPA aliases live data (first byte %#x)", p[0])
	}
	if a.IsWritten(ppaA) {
		t.Fatal("A's erased PPA reports written")
	}
	// The escaped copy must be immune to pool reuse.
	if !bytes.Equal(escaped, sectorOf(0xAA)) {
		t.Fatal("PayloadCopy was clobbered by pool reuse")
	}
	ppaB := g.PPAOf(Addr{Chip: 0, Block: blockB})
	if !bytes.Equal(a.Payload(ppaB), sectorOf(0xBB)) {
		t.Fatal("B's payload is wrong")
	}

	// B's slabs gain a second holder on chip 1; B's block is erased.
	shared := sharePU(t, a, 1, blockA, 0, blockB)
	nsect := PPA(g.ProgramUnit / units.Sector)
	held := map[int32]bool{}
	for i := PPA(0); i < nsect; i++ {
		held[a.SlabOf(ppaB+i)] = true
	}
	if _, err := a.Erase(0, 0, blockB); err != nil {
		t.Fatal(err)
	}
	// A program drawing from the pool must not get the still-held slabs.
	if _, _, err := a.ProgramPU(0, 2, blockA, 0, puPayload(g, 0xCC)); err != nil {
		t.Fatal(err)
	}
	ppaC := g.PPAOf(Addr{Chip: 2, Block: blockA})
	for i := PPA(0); i < nsect; i++ {
		if held[a.SlabOf(ppaC+i)] || !bytes.Equal(a.Payload(shared+i), sectorOf(0xBB)) || !bytes.Equal(a.Payload(ppaC+i), sectorOf(0xCC)) {
			t.Fatalf("sector %d: a program reused a slab a live sector still holds", i)
		}
	}
	// Once the last holder is erased the slabs are reused, and neither of
	// their old holders reads them.
	if _, err := a.Erase(0, 1, blockA); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.ProgramPU(0, 3, blockA, 0, puPayload(g, 0xDD)); err != nil {
		t.Fatal(err)
	}
	ppaD := g.PPAOf(Addr{Chip: 3, Block: blockA})
	for i := PPA(0); i < nsect; i++ {
		if !held[a.SlabOf(ppaD+i)] {
			t.Fatalf("sector %d: the program after both erases got slab %d, not one of the freed ones", i, a.SlabOf(ppaD+i))
		}
		if a.Payload(ppaB+i) != nil || a.Payload(shared+i) != nil || !bytes.Equal(a.Payload(ppaD+i), sectorOf(0xDD)) {
			t.Fatalf("sector %d: an erased holder of a reused slab reads it", i)
		}
	}
	if err := a.CheckSlabRefs(); err != nil {
		t.Fatal(err)
	}
}

// sharePU programs one program unit without data at page 0 of (chip,
// block) and shares into it, sector by sector, the payloads of the unit at
// page 0 of (srcChip, src). It returns the unit's first sector.
func sharePU(t *testing.T, a *Array, chip, block, srcChip, src int) PPA {
	t.Helper()
	g := a.Geometry()
	if _, _, err := a.ProgramPU(0, chip, block, 0, nil); err != nil {
		t.Fatal(err)
	}
	dst, from := g.PPAOf(Addr{Chip: chip, Block: block}), g.PPAOf(Addr{Chip: srcChip, Block: src})
	for i := PPA(0); i < PPA(g.ProgramUnit/units.Sector); i++ {
		a.SharePayload(dst+i, from+i)
	}
	return dst
}

// TestSharedSlabOutlivesEitherHolder: after a share, two sectors hold one
// slab counted twice. Erasing either holder — the source first or the
// destination first — leaves the other's bytes intact, and the slab
// reaches the free stack only once both are erased.
func TestSharedSlabOutlivesEitherHolder(t *testing.T) {
	for _, srcFirst := range []bool{true, false} {
		a := newTestArray(t)
		g := a.Geometry()
		block := g.FirstNormalBlock()
		if _, _, err := a.ProgramPU(0, 0, block, 0, puPayload(g, 0xAA)); err != nil {
			t.Fatal(err)
		}
		src := g.PPAOf(Addr{Chip: 0, Block: block})
		dst := sharePU(t, a, 1, block, 0, block)
		h := a.SlabOf(src)
		if a.SlabOf(dst) != h || a.SlabRefs(h) != 2 {
			t.Fatalf("after the share the holders have slabs %d and %d, counted %d", h, a.SlabOf(dst), a.SlabRefs(h))
		}
		first, second, survivor := 0, 1, dst
		if !srcFirst {
			first, second, survivor = 1, 0, src
		}
		if _, err := a.Erase(0, first, block); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Payload(survivor), sectorOf(0xAA)) {
			t.Fatalf("srcFirst=%v: erasing one holder changed the other's bytes", srcFirst)
		}
		if a.SlabFree(h) || a.SlabRefs(h) != 1 {
			t.Fatalf("srcFirst=%v: with one holder left the slab is free=%v, counted %d", srcFirst, a.SlabFree(h), a.SlabRefs(h))
		}
		if err := a.CheckSlabRefs(); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Erase(0, second, block); err != nil {
			t.Fatal(err)
		}
		if !a.SlabFree(h) || a.SlabRefs(h) != 0 {
			t.Fatalf("srcFirst=%v: with both holders erased the slab is free=%v, counted %d", srcFirst, a.SlabFree(h), a.SlabRefs(h))
		}
		if err := a.CheckSlabRefs(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSharePayloadEdges: sharing a sector without a payload clears the
// destination's; sharing a sector's own slab with itself keeps its count;
// an unprogrammed destination and a timing-only array are left as they are.
func TestSharePayloadEdges(t *testing.T) {
	a := newTestArray(t)
	g := a.Geometry()
	block := g.FirstNormalBlock()
	pay := puPayload(g, 0x77)
	pay[1] = nil
	if _, _, err := a.ProgramPU(0, 0, block, 0, pay); err != nil {
		t.Fatal(err)
	}
	p0 := g.PPAOf(Addr{Chip: 0, Block: block})
	h := a.SlabOf(p0)
	a.SharePayload(p0, p0)
	if a.SlabOf(p0) != h || a.SlabRefs(h) != 1 {
		t.Fatalf("a self-share left slab %d counted %d", a.SlabOf(p0), a.SlabRefs(h))
	}
	a.SharePayload(p0, p0+1) // p0+1 holds no payload
	if a.Payload(p0) != nil || !a.SlabFree(h) {
		t.Fatal("sharing an empty sector did not release the destination's slab")
	}
	unprogrammed := g.PPAOf(Addr{Chip: 1, Block: block})
	a.SharePayload(unprogrammed, p0+2)
	if a.Payload(unprogrammed) != nil || a.SlabRefs(a.SlabOf(p0+2)) != 1 {
		t.Fatal("a share into an unprogrammed sector attached a payload")
	}
	if err := a.CheckSlabRefs(); err != nil {
		t.Fatal(err)
	}

	timing := newTestArray(t)
	if _, _, err := timing.ProgramPU(0, 0, block, 0, nil); err != nil {
		t.Fatal(err)
	}
	timing.SharePayload(unprogrammed, p0)
	if timing.chunkOf(int64(unprogrammed)) != nil || timing.CheckSlabRefs() != nil {
		t.Fatal("a share on a timing-only array touched a chunk")
	}
}

// TestCheckSlabRefsCatchesCorruption: the arena's accounting identity
// holds on a healthy array with shared slabs and names each corruption — a
// count one too high, a count one too low, a held handle on the free stack.
func TestCheckSlabRefsCatchesCorruption(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(a *Array, h int32)
		want    string
	}{
		{"count one too high", func(a *Array, h int32) { a.AddSlabRef(h, 1) }, "counts 3 holders, 2 sectors hold it"},
		{"count one too low", func(a *Array, h int32) { a.AddSlabRef(h, -1) }, "counts 1 holders, 2 sectors hold it"},
		{"held handle freed", func(a *Array, h int32) { a.PushFreeSlab(h) }, "on the free stack but 2 sectors hold it"},
		{"held by an unprogrammed sector", func(a *Array, h int32) {
			g := a.Geometry()
			a.PlantSlab(g.PPAOf(Addr{Chip: 0, Block: g.FirstNormalBlock(), Page: g.PagesPerPU()}), h)
		}, "is not programmed"},
	} {
		a := newTestArray(t)
		g := a.Geometry()
		block := g.FirstNormalBlock()
		if _, _, err := a.ProgramPU(0, 0, block, 0, puPayload(g, 0x3C)); err != nil {
			t.Fatal(err)
		}
		sharePU(t, a, 1, block, 0, block)
		if err := a.CheckSlabRefs(); err != nil {
			t.Fatalf("%s: healthy array: %v", tc.name, err)
		}
		tc.corrupt(a, a.SlabOf(g.PPAOf(Addr{Chip: 0, Block: block, Sector: 2})))
		if err := a.CheckSlabRefs(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: CheckSlabRefs = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestSlabSLCReleasePaths exercises the SLC partial-program and page-program
// paths through the same slab lifecycle: program, verify, erase, reuse.
func TestSlabSLCReleasePaths(t *testing.T) {
	a := newTestArray(t)
	g := a.Geometry()
	spp := g.SectorsPerPage()

	// Partial programs fill page 0 of SLC block 0 sector by sector.
	for s := 0; s < spp; s++ {
		if _, _, err := a.ProgramSLCSector(0, 0, 0, 0, s, sectorOf(byte(s+1))); err != nil {
			t.Fatal(err)
		}
	}
	// A full-page program on SLC block 1.
	page := make([][]byte, spp)
	for s := range page {
		page[s] = sectorOf(0xCC)
	}
	if _, _, err := a.ProgramSLCPage(0, 0, 1, 0, page); err != nil {
		t.Fatal(err)
	}

	for s := 0; s < spp; s++ {
		ppa := g.PPAOf(Addr{Chip: 0, Block: 0, Page: 0, Sector: s})
		if !bytes.Equal(a.Payload(ppa), sectorOf(byte(s+1))) {
			t.Fatalf("partial-programmed sector %d reads wrong", s)
		}
	}

	if _, err := a.Erase(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < spp; s++ {
		ppa := g.PPAOf(Addr{Chip: 0, Block: 0, Page: 0, Sector: s})
		if a.Payload(ppa) != nil || a.IsWritten(ppa) {
			t.Fatalf("SLC sector %d survives erase", s)
		}
	}
	// Block 1 is untouched by block 0's erase.
	if !bytes.Equal(a.Payload(g.PPAOf(Addr{Chip: 0, Block: 1})), sectorOf(0xCC)) {
		t.Fatal("erase of block 0 damaged block 1")
	}
}

// TestSlabCallerBufferNotRetained verifies that programming copies the
// caller's buffer into pooled storage instead of retaining it: mutating the
// source afterwards must not change the media.
func TestSlabCallerBufferNotRetained(t *testing.T) {
	a := newTestArray(t)
	g := a.Geometry()
	src := puPayload(g, 0x11)
	if _, _, err := a.ProgramPU(0, 0, g.FirstNormalBlock(), 0, src); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		for j := range src[i] {
			src[i][j] = 0xFF
		}
	}
	ppa := g.PPAOf(Addr{Chip: 0, Block: g.FirstNormalBlock()})
	if !bytes.Equal(a.Payload(ppa), sectorOf(0x11)) {
		t.Fatal("media aliases the caller's buffer")
	}
}

// TestSlabProgramSteadyStateAllocs pins the pooled media model's allocation
// behavior: on the steady state of program/share/erase cycling, storing
// payloads costs zero heap allocations per operation — slabs cycle through
// the pool.
func TestSlabProgramSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews alloc counts; the pin runs in the non-race suite")
	}
	a, err := NewArray(testGeometry(), DefaultLatencies(), sim.NewEngine())
	if err != nil {
		t.Fatal(err)
	}
	g := a.Geometry()
	block := g.FirstNormalBlock()
	pay := puPayload(g, 0x5A)
	// Warm the pool.
	if _, _, err := a.ProgramPU(0, 0, block, 0, pay); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Erase(0, 0, block); err != nil {
		t.Fatal(err)
	}
	var at sim.Time
	allocs := testing.AllocsPerRun(50, func() {
		var e1, e2, e3, e4 error
		_, at, e1 = a.ProgramPU(at, 0, block, 0, pay)
		// A second holder of every slab, as a device-internal move leaves.
		_, at, e2 = a.ProgramPU(at, 1, block, 0, nil)
		for i := PPA(0); i < PPA(len(pay)); i++ {
			a.SharePayload(g.PPAOf(Addr{Chip: 1, Block: block})+i, g.PPAOf(Addr{Chip: 0, Block: block})+i)
		}
		at, e3 = a.Erase(at, 0, block)
		at, e4 = a.Erase(at, 1, block)
		if e1 != nil || e2 != nil || e3 != nil || e4 != nil {
			t.Fatal(e1, e2, e3, e4)
		}
	})
	// The sim engine's event observation may allocate amortized; payload
	// storage itself must not. Allow a tiny slack but catch per-sector
	// allocation regressions (24 sectors per PU would show as >= 24).
	if allocs > 2 {
		t.Fatalf("program/erase cycle allocates %.1f times per op", allocs)
	}
}

// TestPayloadTimingOnlyReadsNil: an array that was only ever programmed
// without payloads answers nil for every sector, programmed or not.
func TestPayloadTimingOnlyReadsNil(t *testing.T) {
	a := newTestArray(t)
	g := a.Geometry()
	block := g.FirstNormalBlock()
	if _, _, err := a.ProgramPU(0, 1, block, 0, nil); err != nil {
		t.Fatal(err)
	}
	base := g.PPAOf(Addr{Chip: 1, Block: block})
	nsect := g.ProgramUnit / units.Sector
	for i := int64(0); i < 2*nsect; i++ {
		if p := a.Payload(base + PPA(i)); p != nil {
			t.Fatalf("sector %d of a timing-only array has a payload", i)
		}
	}
	if !a.IsWritten(base) || a.IsWritten(base+PPA(nsect)) {
		t.Fatal("programmed flags do not follow the program")
	}
	if a.Payload(-1) != nil || a.Payload(PPA(g.TotalSectors())) != nil {
		t.Fatal("out-of-range sector has a payload")
	}
}

// TestPayloadAfterTimingOnlyPhase: an array that stores its first payload
// after a long timing-only phase returns those bytes, and nil for the
// sectors programmed before it.
func TestPayloadAfterTimingOnlyPhase(t *testing.T) {
	a := newTestArray(t)
	g := a.Geometry()
	for chip := 0; chip < g.Chips(); chip++ {
		for block := g.FirstNormalBlock(); block < g.BlocksPerChip; block++ {
			for page := 0; page < g.PagesPerBlock; page += g.PagesPerPU() {
				if _, _, err := a.ProgramPU(0, chip, block, page, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	first := g.PPAOf(Addr{Chip: 0, Block: g.FirstNormalBlock()})
	if _, err := a.Erase(0, 0, g.FirstNormalBlock()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.ProgramPU(0, 0, g.FirstNormalBlock(), 0, puPayload(g, 0x5A)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Payload(first), sectorOf(0x5A)) || !bytes.Equal(a.Payload(first+PPA(g.ProgramUnit/units.Sector-1)), sectorOf(0x5A)) {
		t.Fatal("the first stored payload does not read back")
	}
	if p := a.Payload(g.PPAOf(Addr{Chip: 1, Block: g.FirstNormalBlock()})); p != nil {
		t.Fatal("a timing-only sector reads a payload once another sector stores one")
	}
}

// TestPayloadFromLoadedImage: an array opened from an image whose media
// carries payloads returns the stored bytes, although nothing was
// programmed through it.
func TestPayloadFromLoadedImage(t *testing.T) {
	src := newTestArray(t)
	g := src.Geometry()
	block := g.FirstNormalBlock()
	pay := make([][]byte, g.ProgramUnit/units.Sector)
	pay[3] = sectorOf(0xC3)
	if _, _, err := src.ProgramPU(0, 2, block, 0, pay); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "payload.img")
	if err := src.SaveImage(path); err != nil {
		t.Fatal(err)
	}
	a, err := LoadArray(path, DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	base := g.PPAOf(Addr{Chip: 2, Block: block})
	if !bytes.Equal(a.Payload(base+3), sectorOf(0xC3)) {
		t.Fatal("a loaded image's payload does not read back")
	}
	if a.Payload(base+2) != nil || !a.IsWritten(base+2) {
		t.Fatal("a loaded timing-only sector reads a payload, or reads unwritten")
	}
}
