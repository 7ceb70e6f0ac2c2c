package ftl

import "testing"

// TestHeadTabMatchesStripingFormula checks the incrementally built head
// table against nand.Array.StripeAddr, the one statement of the striping
// rule it tabulates, entry by entry.
func TestHeadTabMatchesStripingFormula(t *testing.T) {
	f := newTestFTL(t)
	if int64(len(f.headTab)) != f.sbSectors {
		t.Fatalf("head table holds %d entries, want %d", len(f.headTab), f.sbSectors)
	}
	for off := int64(0); off < f.sbSectors; off++ {
		a := f.arr.StripeAddr(0, off)
		want := headEntry{chip: uint16(a.Chip), page: uint16(a.Page), sector: uint16(a.Sector)}
		if f.headTab[off] != want {
			t.Fatalf("offset %d: %+v, want %+v", off, f.headTab[off], want)
		}
		if a.Block != f.firstNormal {
			t.Fatalf("offset %d: superblock 0 on block %d, want %d", off, a.Block, f.firstNormal)
		}
	}
}
