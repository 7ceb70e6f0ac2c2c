// Package nand models the flash media of a consumer storage device: a small
// number of channels, a few chips per channel, blocks that are either
// SLC-mode (fast, 4 KiB partial programming) or multi-level (TLC/QLC, large
// programming units), and the Table-II timing model of the ConZone paper.
//
// The package is a timing-and-state substrate: it enforces NAND physics
// (erase-before-program, in-order programming inside a block), charges
// virtual time on per-chip and per-channel resources, and stores sector
// payloads so upper layers can verify data integrity. Policy — which block
// to write, when to garbage collect — belongs to the layers above.
package nand

import (
	"fmt"

	"github.com/conzone/conzone/internal/units"
)

// Media enumerates the flash cell types supported by the emulator.
type Media int

// Supported media. SLCMode denotes multi-level blocks operated in SLC mode,
// which is how consumer devices realise their secondary write buffer.
const (
	SLCMode Media = iota
	TLC
	QLC
)

// String returns the conventional name of the media type.
func (m Media) String() string {
	switch m {
	case SLCMode:
		return "SLC"
	case TLC:
		return "TLC"
	case QLC:
		return "QLC"
	default:
		return fmt.Sprintf("Media(%d)", int(m))
	}
}

// PPA is a linear physical sector address (4 KiB granularity) across the
// whole array: chip-major, then block, page, sector-in-page.
type PPA int64

// Addr is the structured form of a physical sector address.
type Addr struct {
	Chip   int // linear chip index; channel = Chip % Channels
	Block  int
	Page   int
	Sector int // 4 KiB sector within the 16 KiB page
}

// Geometry describes the physical organisation of the array. All sizes are
// bytes. The first SLCBlocks blocks of every chip operate in SLC mode (the
// paper: "users ... uniformly designate the first n flash blocks of each
// chip as SLC flash blocks"), the next MapBlocks hold the L2P mapping table,
// and the remainder are normal blocks of the configured Media.
type Geometry struct {
	Channels         int   // independent flash channels
	ChipsPerChannel  int   // chips (dies) per channel
	BlocksPerChip    int   // total blocks per chip, including SLC and map
	PagesPerBlock    int   // pages per normal-media block
	SLCPagesPerBlock int   // pages per SLC-mode block (≈ PagesPerBlock / bits-per-cell)
	PageSize         int64 // flash page size, 16 KiB in consumer devices

	SLCBlocks int // SLC-mode blocks at the start of each chip
	MapBlocks int // blocks per chip reserved for the mapping table

	NormalMedia Media // media type of normal blocks (TLC or QLC)

	ProgramUnit    int64 // bytes per multi-page program on normal media
	SLCProgramUnit int64 // bytes per partial program on SLC (4 KiB)

	ChannelMiBps float64 // per-channel transfer bandwidth; <=0 means unthrottled
}

// Chips returns the total number of chips in the array.
func (g Geometry) Chips() int { return g.Channels * g.ChipsPerChannel }

// ChannelOf returns the channel a chip is attached to. Consecutive chip
// indices alternate channels so that striped writes engage all channels.
func (g Geometry) ChannelOf(chip int) int { return chip % g.Channels }

// SectorsPerPage returns the 4 KiB sectors per flash page.
func (g Geometry) SectorsPerPage() int { return g.sectorsPerPage() }

// PagesPerPU returns the flash pages covered by one normal-media program.
func (g Geometry) PagesPerPU() int { return g.pagesPerPU() }

// PUsPerBlock returns the program units per normal block.
func (g Geometry) PUsPerBlock() int { return g.PagesPerBlock / g.PagesPerPU() }

// SuperpageBytes returns the bytes programmed when all chips program one
// unit in parallel — the natural write-buffer size (paper §II-A).
func (g Geometry) SuperpageBytes() int64 { return g.ProgramUnit * int64(g.Chips()) }

// NormalBlocks returns the normal-media blocks per chip.
func (g Geometry) NormalBlocks() int { return g.BlocksPerChip - g.SLCBlocks - g.MapBlocks }

// FirstNormalBlock returns the per-chip index of the first normal block.
func (g Geometry) FirstNormalBlock() int { return g.SLCBlocks + g.MapBlocks }

// SuperblockBytes returns the data capacity of one normal superblock: the
// same block on every chip programmed with normal media.
func (g Geometry) SuperblockBytes() int64 {
	return int64(g.Chips()) * int64(g.PagesPerBlock) * g.PageSize
}

// MediaOf returns the media type of a per-chip block index.
func (g Geometry) MediaOf(block int) Media {
	if block < g.SLCBlocks || (block >= g.SLCBlocks && block < g.FirstNormalBlock()) {
		// Both the SLC region and the map region run in SLC mode; map
		// blocks are kept fast because every L2P miss reads them.
		return SLCMode
	}
	return g.NormalMedia
}

// PagesIn returns the number of programmable pages in a per-chip block,
// which depends on its media mode.
func (g Geometry) PagesIn(block int) int {
	if g.MediaOf(block) == SLCMode {
		return g.SLCPagesPerBlock
	}
	return g.PagesPerBlock
}

// Geometry is 104 bytes and a value receiver copies it on every call, even
// an inlined one, so Array's per-operation paths reach what they need
// through the pointer-receiver forms below; the exported methods above and
// PPAOf delegate to them.

func (g *Geometry) sectorsPerPage() int { return int(g.PageSize / units.Sector) }

func (g *Geometry) pagesPerPU() int { return int(g.ProgramUnit / g.PageSize) }

// maxPagesPerBlock returns the page capacity used for address linearisation.
func (g *Geometry) maxPagesPerBlock() int {
	if g.SLCPagesPerBlock > g.PagesPerBlock {
		return g.SLCPagesPerBlock
	}
	return g.PagesPerBlock
}

// PPAOf linearises a structured address. Addresses in the gap between a
// block's media page count and the linearisation stride are representable
// but never programmable.
func (g Geometry) PPAOf(a Addr) PPA { return g.ppaOf(a) }

func (g *Geometry) ppaOf(a Addr) PPA {
	spp := g.sectorsPerPage()
	ppb := g.maxPagesPerBlock()
	return PPA(((int64(a.Chip)*int64(g.BlocksPerChip)+int64(a.Block))*int64(ppb)+
		int64(a.Page))*int64(spp) + int64(a.Sector))
}

// TotalSectors returns the linearised sector address space size.
func (g Geometry) TotalSectors() int64 {
	return int64(g.Chips()) * int64(g.BlocksPerChip) * int64(g.maxPagesPerBlock()) *
		int64(g.SectorsPerPage())
}

// Validate checks internal consistency and returns a descriptive error for
// the first violated constraint.
func (g Geometry) Validate() error {
	switch {
	case g.Channels <= 0:
		return fmt.Errorf("nand: Channels must be positive, got %d", g.Channels)
	case g.ChipsPerChannel <= 0:
		return fmt.Errorf("nand: ChipsPerChannel must be positive, got %d", g.ChipsPerChannel)
	case g.BlocksPerChip <= 0:
		return fmt.Errorf("nand: BlocksPerChip must be positive, got %d", g.BlocksPerChip)
	case g.PagesPerBlock <= 0:
		return fmt.Errorf("nand: PagesPerBlock must be positive, got %d", g.PagesPerBlock)
	case g.SLCPagesPerBlock <= 0:
		return fmt.Errorf("nand: SLCPagesPerBlock must be positive, got %d", g.SLCPagesPerBlock)
	case g.PageSize <= 0 || g.PageSize%units.Sector != 0:
		return fmt.Errorf("nand: PageSize must be a positive multiple of %d, got %d", units.Sector, g.PageSize)
	case g.NormalMedia != TLC && g.NormalMedia != QLC:
		return fmt.Errorf("nand: NormalMedia must be TLC or QLC, got %v", g.NormalMedia)
	case g.ProgramUnit <= 0 || g.ProgramUnit%g.PageSize != 0:
		return fmt.Errorf("nand: ProgramUnit must be a positive multiple of PageSize, got %d", g.ProgramUnit)
	case int64(g.PagesPerBlock)%(g.ProgramUnit/g.PageSize) != 0:
		return fmt.Errorf("nand: PagesPerBlock (%d) must be a multiple of pages-per-PU (%d)",
			g.PagesPerBlock, g.ProgramUnit/g.PageSize)
	case g.SLCProgramUnit != units.Sector:
		return fmt.Errorf("nand: SLCProgramUnit must be %d (4 KiB partial programming), got %d",
			units.Sector, g.SLCProgramUnit)
	case g.SLCBlocks < 0 || g.MapBlocks < 0:
		return fmt.Errorf("nand: negative region size (SLC %d, map %d)", g.SLCBlocks, g.MapBlocks)
	case g.SLCBlocks+g.MapBlocks >= g.BlocksPerChip:
		return fmt.Errorf("nand: SLC (%d) + map (%d) blocks leave no normal blocks of %d",
			g.SLCBlocks, g.MapBlocks, g.BlocksPerChip)
	}
	return nil
}

// String summarises the geometry for logs and tool output.
func (g Geometry) String() string {
	return fmt.Sprintf("%dch x %dchip, %d blk/chip (%d SLC + %d map), %d pg/blk (%d SLC-mode), page %s, PU %s, %s, chan %.0f MiB/s",
		g.Channels, g.ChipsPerChannel, g.BlocksPerChip, g.SLCBlocks, g.MapBlocks,
		g.PagesPerBlock, g.SLCPagesPerBlock, units.FormatBytes(g.PageSize),
		units.FormatBytes(g.ProgramUnit), g.NormalMedia, g.ChannelMiBps)
}
