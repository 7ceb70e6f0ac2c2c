package ftl

import "testing"

// TestHeadTabMatchesStripingFormula checks the incrementally built head
// table against the closed form it tabulates, entry by entry.
func TestHeadTabMatchesStripingFormula(t *testing.T) {
	f := newTestFTL(t)
	chips := int64(f.geo.Chips())
	if int64(len(f.headTab)) != f.sbSectors {
		t.Fatalf("head table holds %d entries, want %d", len(f.headTab), f.sbSectors)
	}
	for off := int64(0); off < f.sbSectors; off++ {
		k, rem := off/f.puSectors, off%f.puSectors
		want := headEntry{
			chip:   uint16(k % chips),
			page:   uint16((k/chips)*int64(f.pagesPerPU) + rem/int64(f.spp)),
			sector: uint16(rem % int64(f.spp)),
		}
		if f.headTab[off] != want {
			t.Fatalf("offset %d: %+v, want %+v", off, f.headTab[off], want)
		}
	}
}
