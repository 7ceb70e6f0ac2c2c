// Package mapping implements ConZone's hybrid L2P mapping table (paper
// §III-C, Fig. 5). The FTL keeps a full page-granularity table — one entry
// per 4 KiB logical sector — and marks runs that became physically
// contiguous with two reserved "map bits": page, chunk (4 MiB) or zone
// aggregation. Aggregated runs can be represented by a single L2P cache
// entry. Every promotion and every demotion covers a whole chunk or the
// whole zone, so the bits are stored once per chunk, not once per entry.
//
// Physical locations are abstract physical sector numbers (PSNs) assigned
// by the FTL in write order, so "physically contiguous" reduces to
// arithmetic succession, exactly as the paper's reserved-superblock layout
// guarantees. PSNs at or above the aggregation limit (the SLC staging area)
// never aggregate, because SLC placement follows the staging write pointer,
// not the zone offset.
package mapping

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Gran is the aggregation magnitude recorded in an entry's map bits.
type Gran uint8

// Aggregation levels, in probe order from widest to narrowest.
const (
	Page Gran = iota
	Chunk
	Zone
)

// String names the granularity.
func (g Gran) String() string {
	switch g {
	case Page:
		return "page"
	case Chunk:
		return "chunk"
	case Zone:
		return "zone"
	default:
		return fmt.Sprintf("Gran(%d)", int(g))
	}
}

// PSN is an abstract physical sector number assigned by the FTL.
type PSN int64

// InvalidPSN marks an unmapped logical sector.
const InvalidPSN PSN = -1

// MaxPSN is the largest PSN an entry can hold: entries store PSN+1 in 32
// bits, with 0 meaning unmapped.
const MaxPSN PSN = math.MaxUint32 - 1

// ErrPSNSpace reports a PSN space wider than the 32-bit entries hold.
var ErrPSNSpace = errors.New("mapping: PSN space exceeds 32-bit entries")

// Table is the page-granularity mapping table with per-chunk map bits.
//
// The table is sparse by zone: a zone's entries are allocated on the zone's
// first Set and released as a whole by InvalidateZone, so an all-invalid
// table costs one slice header pair per zone and a device pays for the
// zones it wrote. Entries store the PSN plus one — the zero value is
// "unmapped" — so a fresh zone table needs no fill loop, and released zone
// tables wait on a freelist (cleared when reused) instead of going back to
// the garbage collector.
type Table struct {
	zones []zoneMap // by zone index; zero until the zone's first Set
	free  []zoneMap // released by InvalidateZone

	total    int64 // logical sectors mapped
	chunk    span  // logical sectors per chunk (1024 = 4 MiB)
	zone     span  // logical sectors per zone
	aggLimit PSN   // PSNs >= aggLimit (SLC/staging space) never aggregate
}

// zoneMap holds one zone's entries, indexed by zone offset, and the map bits
// of its chunks, indexed by chunk. A zone-aggregated zone marks every chunk
// Zone.
type zoneMap struct {
	psn  []uint32 // PSN + 1; 0 = unmapped
	bits []Gran   // map bits, one per chunk
}

// span is a sector count with a shift/mask fast path for powers of two,
// which every shipped configuration uses: the lookup path then never
// divides by a variable.
type span struct {
	n     int64
	mask  int64
	shift uint
	pow2  bool
}

func newSpan(n int64) span {
	s := span{n: n}
	if n&(n-1) == 0 {
		s.pow2, s.mask, s.shift = true, n-1, uint(bits.TrailingZeros64(uint64(n)))
	}
	return s
}

// split returns x / s.n and x % s.n for non-negative x.
func (s *span) split(x int64) (q, r int64) {
	if s.pow2 {
		return x >> s.shift, x & s.mask
	}
	return x / s.n, x % s.n
}

// Config sizes a table.
type Config struct {
	TotalSectors int64 // logical sectors mapped
	ChunkSectors int64 // sectors per chunk; must divide ZoneSectors
	ZoneSectors  int64 // sectors per zone; must divide TotalSectors
	AggLimit     PSN   // first non-aggregatable PSN (start of SLC space)
}

// NewTable builds an all-invalid table.
func NewTable(cfg Config) (*Table, error) {
	if cfg.TotalSectors <= 0 {
		return nil, fmt.Errorf("mapping: TotalSectors must be positive, got %d", cfg.TotalSectors)
	}
	if cfg.ChunkSectors <= 0 || cfg.ZoneSectors <= 0 {
		return nil, fmt.Errorf("mapping: chunk (%d) and zone (%d) sectors must be positive",
			cfg.ChunkSectors, cfg.ZoneSectors)
	}
	if cfg.ZoneSectors%cfg.ChunkSectors != 0 {
		return nil, fmt.Errorf("mapping: zone sectors %d not a multiple of chunk sectors %d",
			cfg.ZoneSectors, cfg.ChunkSectors)
	}
	if cfg.TotalSectors%cfg.ZoneSectors != 0 {
		return nil, fmt.Errorf("mapping: total sectors %d not a multiple of zone sectors %d",
			cfg.TotalSectors, cfg.ZoneSectors)
	}
	if cfg.AggLimit < 0 {
		return nil, fmt.Errorf("mapping: negative AggLimit %d", cfg.AggLimit)
	}
	if cfg.AggLimit > MaxPSN || PSN(cfg.TotalSectors) > MaxPSN+1 {
		return nil, fmt.Errorf("%w: %d sectors, AggLimit %d", ErrPSNSpace, cfg.TotalSectors, cfg.AggLimit)
	}
	return &Table{
		zones:    make([]zoneMap, cfg.TotalSectors/cfg.ZoneSectors),
		total:    cfg.TotalSectors,
		chunk:    newSpan(cfg.ChunkSectors),
		zone:     newSpan(cfg.ZoneSectors),
		aggLimit: cfg.AggLimit,
	}, nil
}

func (t *Table) check(lpa int64) error {
	if lpa < 0 || lpa >= t.total {
		return fmt.Errorf("mapping: LPA %d out of range [0,%d)", lpa, t.total)
	}
	return nil
}

// locate returns the zone table covering an in-range lpa — its slices are
// nil while the zone holds no mapping — and lpa's offset in the zone.
func (t *Table) locate(lpa int64) (*zoneMap, int64) {
	zi, off := t.zone.split(lpa)
	return &t.zones[zi], off
}

// Set records lpa -> psn at page granularity. If the covering chunk or zone
// was aggregated, the aggregation is demoted first so map bits always
// describe the true layout.
func (t *Table) Set(lpa int64, psn PSN) error {
	if err := t.check(lpa); err != nil {
		return err
	}
	if psn < 0 || psn > MaxPSN {
		return fmt.Errorf("mapping: Set with invalid PSN %d", psn)
	}
	z, off := t.locate(lpa)
	if z.psn == nil {
		if n := len(t.free); n > 0 {
			*z = t.free[n-1]
			t.free = t.free[:n-1]
			clear(z.psn)
			clear(z.bits)
		} else {
			*z = zoneMap{psn: make([]uint32, t.zone.n), bits: make([]Gran, t.zone.n/t.chunk.n)}
		}
	}
	if c, _ := t.chunk.split(off); z.bits[c] != Page {
		t.demote(z, c)
	}
	z.psn[off] = uint32(psn + 1)
	return nil
}

// demote clears the aggregation covering chunk c down to page granularity:
// the chunk's own, or the whole zone's.
func (t *Table) demote(z *zoneMap, c int64) {
	if z.bits[c] == Zone {
		clear(z.bits)
		return
	}
	z.bits[c] = Page
}

// Get returns the page-granularity translation of lpa.
func (t *Table) Get(lpa int64) (PSN, bool) {
	if t.check(lpa) != nil {
		return InvalidPSN, false
	}
	z, off := t.locate(lpa)
	if z.psn == nil {
		return InvalidPSN, false
	}
	p := PSN(z.psn[off]) - 1
	return p, p != InvalidPSN
}

// NextStaged returns the first LPA in [lpa, end) whose entry holds a staged
// PSN — one at or above the aggregation limit — and that PSN. The range must
// lie within lpa's zone; ok is false when no entry in it is staged.
func (t *Table) NextStaged(lpa, end int64) (next int64, psn PSN, ok bool) {
	if t.check(lpa) != nil || end <= lpa {
		return 0, InvalidPSN, false
	}
	z, off := t.locate(lpa)
	if z.psn == nil {
		return 0, InvalidPSN, false
	}
	stop := min(off+end-lpa, t.zone.n)
	lim := uint32(t.aggLimit) + 1 // the stored form of the first staged PSN
	for i, p := range z.psn[off:stop] {
		if p >= lim {
			return lpa + int64(i), PSN(p) - 1, true
		}
	}
	return 0, InvalidPSN, false
}

// Allocated reports whether the zone has a table: false means Get finds no
// entry anywhere in it, so a walk over what is mapped may skip the zone.
func (t *Table) Allocated(zone int) bool {
	return zone >= 0 && zone < len(t.zones) && t.zones[zone].psn != nil
}

// Bits returns the map bits of lpa's entry.
func (t *Table) Bits(lpa int64) Gran {
	if t.check(lpa) != nil {
		return Page
	}
	z, off := t.locate(lpa)
	if z.bits == nil {
		return Page
	}
	c, _ := t.chunk.split(off)
	return z.bits[c]
}

// aggregatableRun reports whether the n entries from zone offset base are
// valid, physically consecutive, below the aggregation limit, and start on
// an n-aligned physical boundary — the paper's "compare the physical
// address to the physical chunk/physical zone boundary" test.
//
// The run's last entry is compared before the walk: a zone fills front to
// back, so while a chunk is still being written its last entry is unmapped
// and the test costs O(1) per call, not O(write frontier). The full walk
// runs only when both ends already fit — once per completed run, or when
// the mismatch is strictly inside.
func (t *Table) aggregatableRun(z *zoneMap, base, n int64) bool {
	first := z.psn[base]
	if first == 0 || PSN(first)-1 >= t.aggLimit || int64(first-1)%n != 0 {
		return false
	}
	if z.psn[base+n-1] != first+uint32(n-1) {
		return false
	}
	for i, p := range z.psn[base : base+n] {
		if p != first+uint32(i) {
			return false
		}
	}
	return true
}

// TryAggregateChunk promotes the chunk containing lpa to chunk aggregation
// if its run qualifies. It reports whether the chunk is (now) aggregated at
// chunk granularity or wider.
func (t *Table) TryAggregateChunk(lpa int64) bool {
	if t.check(lpa) != nil {
		return false
	}
	z, off := t.locate(lpa)
	if z.psn == nil {
		return false
	}
	c, r := t.chunk.split(off)
	if z.bits[c] >= Chunk {
		return true
	}
	if !t.aggregatableRun(z, off-r, t.chunk.n) {
		return false
	}
	z.bits[c] = Chunk
	return true
}

// TryAggregateZone promotes the zone containing lpa to zone aggregation if
// the whole zone's run qualifies. It reports whether the zone is aggregated.
func (t *Table) TryAggregateZone(lpa int64) bool {
	if t.check(lpa) != nil {
		return false
	}
	z, _ := t.locate(lpa)
	if z.psn == nil {
		return false
	}
	if z.bits[0] == Zone {
		return true
	}
	if !t.aggregatableRun(z, 0, t.zone.n) {
		return false
	}
	for i := range z.bits {
		z.bits[i] = Zone
	}
	return true
}

// Effective returns the widest valid translation entry covering lpa: the
// entry's aligned base LPA, its granularity, and the base PSN. This is what
// a BITMAP-strategy fetch loads into the L2P cache with one flash read.
func (t *Table) Effective(lpa int64) (baseLPA int64, g Gran, base PSN, ok bool) {
	if t.check(lpa) != nil {
		return 0, Page, InvalidPSN, false
	}
	z, off := t.locate(lpa)
	if z.psn == nil || z.psn[off] == 0 {
		return lpa, Page, InvalidPSN, false
	}
	c, r := t.chunk.split(off)
	switch z.bits[c] {
	case Zone:
		return lpa - off, Zone, PSN(z.psn[0]) - 1, true
	case Chunk:
		return lpa - r, Chunk, PSN(z.psn[off-r]) - 1, true
	default:
		return lpa, Page, PSN(z.psn[off]) - 1, true
	}
}

// SectorsOf returns the sectors covered by one entry of granularity g.
func (t *Table) SectorsOf(g Gran) int64 {
	switch g {
	case Zone:
		return t.zone.n
	case Chunk:
		return t.chunk.n
	default:
		return 1
	}
}

// InvalidateZone clears every mapping of the zone containing lpa and resets
// the map bits, as a zone reset does: the zone's table is released whole.
func (t *Table) InvalidateZone(lpa int64) error {
	if err := t.check(lpa); err != nil {
		return err
	}
	z, _ := t.locate(lpa)
	if z.psn != nil {
		t.free = append(t.free, *z)
		*z = zoneMap{}
	}
	return nil
}

// CheckInvariants verifies internal consistency: a zone mark covers every
// chunk of its zone, and aggregated runs really are contiguous and aligned.
// It returns the first violation found, or nil. Tests call this after random
// operation sequences.
func (t *Table) CheckInvariants() error {
	for zi := range t.zones {
		z := &t.zones[zi]
		if z.psn == nil {
			continue
		}
		zbase := int64(zi) * t.zone.n
		for c, g := range z.bits {
			base := int64(c) * t.chunk.n
			n := t.chunk.n
			if (g == Zone) != (z.bits[0] == Zone) {
				return fmt.Errorf("mapping: non-uniform bits in zone at %d (chunk %d %v, first chunk %v)", zbase, c, g, z.bits[0])
			}
			if g == Zone {
				if c != 0 {
					continue // the zone's run is checked from its first chunk
				}
				n = t.zone.n
			}
			if g != Page && !t.aggregatableRun(z, base, n) {
				return fmt.Errorf("mapping: run at %d marked %v but not contiguous/aligned", zbase+base, g)
			}
		}
	}
	return nil
}
