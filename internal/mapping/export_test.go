package mapping

// What only the package's own tests ask of a table.

// Invalidate removes the mapping for lpa, demoting any covering aggregation.
// The device never unmaps one sector: a zone reset releases the zone's table
// whole.
func (t *Table) Invalidate(lpa int64) error {
	if err := t.check(lpa); err != nil {
		return err
	}
	z, off := t.locate(lpa)
	if z.psn == nil {
		return nil
	}
	if c, _ := t.chunk.split(off); z.bits[c] != Page {
		t.demote(z, c)
	}
	z.psn[off] = 0
	return nil
}

// MappedInRange counts the valid entries in [lo, hi), clamped to the table.
func (t *Table) MappedInRange(lo, hi int64) int64 {
	if lo < 0 {
		lo = 0
	}
	if hi > t.total {
		hi = t.total
	}
	var n int64
	for lo < hi {
		z, off := t.locate(lo)
		end := off + (hi - lo)
		if end > t.zone.n {
			end = t.zone.n
		}
		if z.psn != nil {
			for _, p := range z.psn[off:end] {
				if p != 0 {
					n++
				}
			}
		}
		lo += end - off
	}
	return n
}

// ValidCount returns the number of valid entries.
func (t *Table) ValidCount() int64 { return t.MappedInRange(0, t.total) }
