package nand

import (
	"strings"
	"testing"
	"testing/quick"

	"github.com/conzone/conzone/internal/units"
)

// testGeometry returns a small but fully featured geometry: 2 channels x 2
// chips, TLC with a 96 KiB program unit (6 pages), SLC and map regions.
func testGeometry() Geometry {
	return Geometry{
		Channels:         2,
		ChipsPerChannel:  2,
		BlocksPerChip:    16,
		PagesPerBlock:    24, // 4 PUs per block
		SLCPagesPerBlock: 8,  // 24 / 3 bits per cell
		PageSize:         16 * units.KiB,
		SLCBlocks:        4,
		MapBlocks:        2,
		NormalMedia:      TLC,
		ProgramUnit:      96 * units.KiB,
		SLCProgramUnit:   4 * units.KiB,
		ChannelMiBps:     3200,
	}
}

func TestMediaString(t *testing.T) {
	if SLCMode.String() != "SLC" || TLC.String() != "TLC" || QLC.String() != "QLC" {
		t.Error("media names wrong")
	}
	if !strings.Contains(Media(9).String(), "9") {
		t.Error("unknown media should include the number")
	}
}

func TestGeometryDerived(t *testing.T) {
	g := testGeometry()
	if g.Chips() != 4 {
		t.Errorf("Chips = %d", g.Chips())
	}
	if g.SectorsPerPage() != 4 {
		t.Errorf("SectorsPerPage = %d", g.SectorsPerPage())
	}
	if g.PagesPerPU() != 6 {
		t.Errorf("PagesPerPU = %d", g.PagesPerPU())
	}
	if g.PUsPerBlock() != 4 {
		t.Errorf("PUsPerBlock = %d", g.PUsPerBlock())
	}
	if g.SuperpageBytes() != 384*units.KiB {
		t.Errorf("SuperpageBytes = %d", g.SuperpageBytes())
	}
	if g.SuperblockBytes() != 4*24*16*units.KiB {
		t.Errorf("SuperblockBytes = %d", g.SuperblockBytes())
	}
	if g.NormalBlocks() != 10 {
		t.Errorf("NormalBlocks = %d", g.NormalBlocks())
	}
	if g.FirstNormalBlock() != 6 {
		t.Errorf("first normal block = %d", g.FirstNormalBlock())
	}
}

func TestChannelOf(t *testing.T) {
	g := testGeometry()
	// Consecutive chips must alternate channels for stripe parallelism.
	if g.ChannelOf(0) == g.ChannelOf(1) {
		t.Error("chips 0 and 1 should be on different channels")
	}
	if g.ChannelOf(0) != g.ChannelOf(2) {
		t.Error("chips 0 and 2 should share a channel")
	}
}

func TestMediaOfRegions(t *testing.T) {
	g := testGeometry()
	if g.MediaOf(0) != SLCMode || g.MediaOf(3) != SLCMode {
		t.Error("SLC region misclassified")
	}
	if g.MediaOf(4) != SLCMode || g.MediaOf(5) != SLCMode {
		t.Error("map region should run in SLC mode")
	}
	if g.MediaOf(6) != TLC || g.MediaOf(15) != TLC {
		t.Error("normal region misclassified")
	}
}

func TestPagesIn(t *testing.T) {
	g := testGeometry()
	if g.PagesIn(0) != 8 {
		t.Errorf("SLC block pages = %d", g.PagesIn(0))
	}
	if g.PagesIn(6) != 24 {
		t.Errorf("normal block pages = %d", g.PagesIn(6))
	}
}

func TestPPARoundTrip(t *testing.T) {
	g := testGeometry()
	arr := newTestArray(t) // its precomputed strides must give the same PPAs
	f := func(chip, block, page, sector uint8) bool {
		a := Addr{
			Chip:   int(chip) % g.Chips(),
			Block:  int(block) % g.BlocksPerChip,
			Page:   int(page) % g.PagesPerBlock,
			Sector: int(sector) % g.SectorsPerPage(),
		}
		p := g.PPAOf(a)
		if p < 0 || int64(p) >= g.TotalSectors() || arr.PPAOf(a) != p {
			return false
		}
		return g.DecodePPA(p) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPPAOrdering(t *testing.T) {
	g := testGeometry()
	// Consecutive sectors in a page are consecutive PPAs.
	a := Addr{Chip: 1, Block: 7, Page: 3, Sector: 0}
	b := Addr{Chip: 1, Block: 7, Page: 3, Sector: 1}
	if g.PPAOf(b) != g.PPAOf(a)+1 {
		t.Error("sector neighbours should be PPA neighbours")
	}
	// Last sector of a page is followed by sector 0 of the next page.
	c := Addr{Chip: 1, Block: 7, Page: 3, Sector: 3}
	d := Addr{Chip: 1, Block: 7, Page: 4, Sector: 0}
	if g.PPAOf(d) != g.PPAOf(c)+1 {
		t.Error("page boundary should be contiguous")
	}
}

func TestValidateAcceptsDefault(t *testing.T) {
	if err := testGeometry().Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Geometry)
	}{
		{"zero channels", func(g *Geometry) { g.Channels = 0 }},
		{"zero chips", func(g *Geometry) { g.ChipsPerChannel = 0 }},
		{"zero blocks", func(g *Geometry) { g.BlocksPerChip = 0 }},
		{"zero pages", func(g *Geometry) { g.PagesPerBlock = 0 }},
		{"zero slc pages", func(g *Geometry) { g.SLCPagesPerBlock = 0 }},
		{"odd page size", func(g *Geometry) { g.PageSize = 1000 }},
		{"slc as normal media", func(g *Geometry) { g.NormalMedia = SLCMode }},
		{"pu not page multiple", func(g *Geometry) { g.ProgramUnit = 17 * units.KiB }},
		{"block not pu multiple", func(g *Geometry) { g.PagesPerBlock = 25 }},
		{"slc pu not 4k", func(g *Geometry) { g.SLCProgramUnit = 8 * units.KiB }},
		{"negative slc region", func(g *Geometry) { g.SLCBlocks = -1 }},
		{"regions eat all blocks", func(g *Geometry) { g.SLCBlocks = 14; g.MapBlocks = 2 }},
	}
	for _, m := range mutations {
		g := testGeometry()
		m.mut(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: expected validation error", m.name)
		}
	}
}

func TestGeometryString(t *testing.T) {
	s := testGeometry().String()
	for _, want := range []string{"2ch", "TLC", "96KiB", "3200"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}
