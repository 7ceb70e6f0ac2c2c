package nand

import (
	"bytes"
	"path/filepath"
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
	if !bytes.Equal(a.Payload(g.PPAOf(Addr{Chip: 0, Block: blockB})), sectorOf(0xBB)) {
		t.Fatal("B's payload is wrong")
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
// behavior: on the steady state of program/erase cycling, storing payloads
// costs zero heap allocations per operation — slabs cycle through the pool.
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
		var e1, e2 error
		_, at, e1 = a.ProgramPU(at, 0, block, 0, pay)
		at, e2 = a.Erase(at, 0, block)
		if e1 != nil || e2 != nil {
			t.Fatal(e1, e2)
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
