package nand

import "fmt"

// Helpers only this package's tests call: the inverse of PPAOf for the
// round-trip property, an owning payload copy for the slab-reuse test, and
// the media parse/bits tables whose only consumers are their own tests.

// ParseMedia converts a configuration string into a Media value.
func ParseMedia(s string) (Media, error) {
	switch s {
	case "SLC", "slc":
		return SLCMode, nil
	case "TLC", "tlc":
		return TLC, nil
	case "QLC", "qlc":
		return QLC, nil
	}
	return 0, fmt.Errorf("nand: unknown media %q", s)
}

// BitsPerCell returns how many bits each cell stores for the media type.
func (m Media) BitsPerCell() int {
	switch m {
	case SLCMode:
		return 1
	case TLC:
		return 3
	case QLC:
		return 4
	default:
		return 0
	}
}

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
