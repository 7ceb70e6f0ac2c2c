package nand

import (
	"bytes"

	"github.com/conzone/conzone/internal/units"
)

// Helpers only this package's tests call: the inverse of PPAOf for the
// round-trip property and an owning payload copy for the slab-reuse test.

// DecodePPA is the inverse of PPAOf.
func (g Geometry) DecodePPA(p PPA) Addr {
	spp := int64(g.SectorsPerPage())
	ppb := int64(g.maxPagesPerBlock())
	v := int64(p)
	sector := v % spp
	v /= spp
	page := v % ppb
	v /= ppb
	block := v % int64(g.BlocksPerChip)
	chip := v / int64(g.BlocksPerChip)
	return Addr{Chip: int(chip), Block: int(block), Page: int(page), Sector: int(sector)}
}

// PayloadCopy returns a freshly allocated copy of the sector's stored bytes
// (nil when none are recorded). Unlike Payload's borrowed view, the result
// survives erases and pool reuse, so it is safe to retain or hand across
// the host boundary.
func (a *Array) PayloadCopy(ppa PPA) []byte {
	p := a.Payload(ppa)
	if p == nil {
		return nil
	}
	return append([]byte(nil), p...)
}

// What FuzzLoadImage (package nand_test, so that it can mount what loads)
// needs of the image code: the loader and writer without a file, a way past
// the checksums, and what a header alone makes the loader allocate.

// ReadImage is LoadArray on bytes in memory.
func ReadImage(b []byte, lat LatencyTable) (*Array, error) {
	return readImage(bytes.NewReader(b), int64(len(b)), lat)
}

// ImageBytes returns what SaveImage writes.
func (a *Array) ImageBytes() ([]byte, error) {
	var buf bytes.Buffer
	err := a.writeImage(&buf)
	return buf.Bytes(), err
}

// ResealImage recomputes every checksum of a v2 image whose sections fit
// its header's lengths, so a mutated image reaches the rules behind them.
func ResealImage(b []byte) ([]byte, bool) {
	p, ok := parseV2(b)
	if !ok {
		return nil, false
	}
	return p.bytes(), true
}

// ImageFixedAlloc returns the bytes NewArray allocates for the geometry in
// b's header alone — the chunk directory and the transfer-time table — or 0
// when b has no v2 header the loader would build an array for.
func ImageFixedAlloc(b []byte) int64 {
	p, ok := parseV2(b)
	if !ok {
		return 0
	}
	g := p.geometry()
	n, err := checkImageGeometry(g)
	if err != nil {
		return 0
	}
	return 8 * (n>>chunkShift + g.ProgramUnit/units.Sector + 2)
}

// What the slab-accounting tests read of the arena, and the three ways they
// corrupt it the way a reference-counting bug would.

// SlabOf returns the handle of the slab the sector holds, 0 when none.
func (a *Array) SlabOf(ppa PPA) int32 {
	if s := a.setOf(int64(ppa) >> chunkShift); s != nil {
		return s[ppa&chunkMask]
	}
	return 0
}

// SlabRefs returns how many sectors handle h counts as holding it.
func (a *Array) SlabRefs(h int32) int32 { return a.slabs.refs[h-1] }

// SlabFree reports whether handle h is on the free stack.
func (a *Array) SlabFree(h int32) bool {
	for _, f := range a.slabs.free {
		if f == h {
			return true
		}
	}
	return false
}

// AddSlabRef adds delta to handle h's count and nothing else.
func (a *Array) AddSlabRef(h, delta int32) { a.slabs.refs[h-1] += delta }

// PushFreeSlab pushes handle h onto the free stack, whoever holds it.
func (a *Array) PushFreeSlab(h int32) { a.slabs.free = append(a.slabs.free, h) }

// PlantSlab makes the sector at ppa hold handle h, programmed or not, and
// counts it.
func (a *Array) PlantSlab(ppa PPA, h int32) {
	a.storeSet(int64(ppa) >> chunkShift)[ppa&chunkMask] = h
	a.slabs.refs[h-1]++
}
