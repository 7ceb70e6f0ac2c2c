package slc

import (
	"errors"
	"fmt"

	"github.com/conzone/conzone/internal/nand"
	"github.com/conzone/conzone/internal/sim"
)

// Mount-time recovery of the staging allocator. After a power cut the
// region's RAM state is gone; what survives is the media itself (per-chip
// append points and programmed sectors) plus the journaled retirements.
// Recover rebuilds the allocator from those, and the FTL then re-marks the
// live sectors it chose as mapping winners via MarkValid.

// scanExtent derives superblock sb's write position from its per-chip
// append points. Appends stripe page-major, so a well-formed superblock's
// extents are exactly the prefix described by one position (the audit's
// staging-extent formula); the sum of extents is that position. ok is false
// when the extents do not form such a prefix — which happens only when a
// power cut tore the per-chip erase loop of a GC collection partway
// through, leaving some chips erased and others still full.
func (r *Region) scanExtent(sb int) (pos int64, ok bool) {
	block := r.blocks[sb]
	spp := int64(r.spp)
	chips := int64(r.chips)
	for chip := 0; chip < r.chips; chip++ {
		pos += int64(r.arr.NextProgramSector(chip, block))
	}
	fullPages := pos / spp
	partChip := fullPages % chips
	partSectors := pos % spp
	for chip := int64(0); chip < chips; chip++ {
		want := (fullPages / chips) * spp
		if chip < fullPages%chips {
			want += spp
		}
		if chip == partChip && partSectors > 0 {
			want += partSectors
		}
		if got := int64(r.arr.NextProgramSector(int(chip), block)); got != want {
			return pos, false
		}
	}
	return pos, true
}

// Recover rebuilds the allocator state from the media at mount time: the
// journaled retirements are re-applied, each surviving superblock's write
// position is derived from its per-chip append points, torn GC erases are
// finished, and the free list, open superblock and write pointer are
// re-derived. All validity is cleared — the FTL re-marks the sectors it
// mapped via MarkValid afterwards. Returns the completion time of any
// cleanup erases issued.
func (r *Region) Recover(at sim.Time, retired []int) (sim.Time, error) {
	for _, sb := range retired {
		if sb < 0 || sb >= len(r.sbs) {
			return at, fmt.Errorf("slc: recover: retired superblock %d out of range", sb)
		}
		if !r.sbs[sb].retired {
			r.sbs[sb].retired = true
			r.sbs[sb].inFree = false
			r.retiredCount++
			r.stats.Retired++
		}
	}
	r.free = r.free[:0]
	r.cur, r.pos = -1, 0
	done := at
	for i := range r.sbs {
		sb := &r.sbs[i]
		for pos := range sb.valid {
			sb.valid[pos] = false
		}
		sb.validCount = 0
		sb.inFree = false
		if sb.retired {
			continue
		}
		pos, wellFormed := r.scanExtent(i)
		if !wellFormed {
			// A torn GC erase loop: the victim's live data was migrated
			// before the erases began, so finishing the erase loses nothing.
			for chip := 0; chip < r.chips; chip++ {
				if r.arr.NextProgramSector(chip, r.blocks[i]) == 0 {
					continue
				}
				end, err := r.arr.Erase(at, chip, r.blocks[i])
				if end > done {
					done = end
				}
				if err != nil {
					if errors.Is(err, nand.ErrEraseFail) {
						r.retire(i)
						break
					}
					return done, fmt.Errorf("slc: recover erase: %w", err)
				}
			}
			if sb.retired {
				continue
			}
			pos = 0
		}
		switch {
		case pos == 0:
			sb.inFree = true
			r.free = append(r.free, i)
		case pos < r.sbCap:
			if r.cur >= 0 {
				return done, fmt.Errorf("slc: recover: superblocks %d and %d both partially written", r.cur, i)
			}
			r.cur = i
			r.pos = pos
			r.tables(i)
		}
	}
	return done, nil
}

// MarkValid marks the staged sector at idx live with its reverse-mapped
// logical address — recovery's counterpart of the bookkeeping Append does.
// The position must be below its superblock's programmed extent and not on
// the free list.
func (r *Region) MarkValid(idx, lpa int64) error {
	sb, pos, err := r.locate(idx)
	if err != nil {
		return err
	}
	if r.sbs[sb].inFree {
		return fmt.Errorf("slc: mark valid on free superblock %d", sb)
	}
	r.tables(sb)
	if r.sbs[sb].valid[pos] {
		return fmt.Errorf("slc: double mark of index %d", idx)
	}
	r.sbs[sb].valid[pos] = true
	r.sbs[sb].lpa[pos] = lpa
	r.sbs[sb].validCount++
	return nil
}
