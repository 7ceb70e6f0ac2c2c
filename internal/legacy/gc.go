package legacy

import (
	"fmt"

	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/slc"
)

// ensureGC keeps enough free normal superblocks to absorb an incoming run
// of n sectors, running greedy garbage collection when the free pool drops
// below the configured target (paper Fig. 1(a) E.1/E.2: legacy devices
// must move valid pages themselves).
func (d *Device) ensureGC(at sim.Time, n int64) (sim.Time, error) {
	for {
		avail := int64(len(d.freeSBs)) * d.sbSectors
		if d.cur >= 0 {
			avail += d.sbSectors - d.pos
		}
		if len(d.freeSBs) >= d.params.GCFreeTarget && avail >= n {
			return at, nil
		}
		victim := d.victimSB()
		if victim < 0 {
			return at, fmt.Errorf("legacy: no GC victim with free=%d", len(d.freeSBs))
		}
		done, err := d.collectSB(at, victim)
		if err != nil {
			return at, err
		}
		at = done
	}
}

// victimSB picks the non-free, non-open normal superblock with the fewest
// valid sectors; fully valid superblocks are useless victims.
func (d *Device) victimSB() int {
	best, bestValid := -1, int(d.sbSectors)
	for i := range d.sbs {
		if d.sbs[i].inFree || i == d.cur {
			continue
		}
		if d.sbs[i].validCount < bestValid {
			best, bestValid = i, d.sbs[i].validCount
		}
	}
	return best
}

// collectSB migrates the victim's valid sectors to the write pointer and
// erases it.
func (d *Device) collectSB(at sim.Time, victim int) (sim.Time, error) {
	sb := &d.sbs[victim]
	done := at

	// Gather the valid sectors.
	var offs []int64
	for off := int64(0); off < d.sbSectors; off++ {
		if sb.valid[off] {
			offs = append(offs, off)
		}
	}
	if len(offs) > 0 {
		// Read them (page-grouped).
		d.pages.Reset()
		for _, off := range offs {
			d.pages.Add(d.arr.StripeAddr(victim, off))
		}
		for _, r := range d.pages.Runs() {
			end, err := d.arr.ReadPage(at, r.Chip, r.Block, r.Page, r.Bytes)
			if err != nil {
				return at, err
			}
			if end > done {
				done = end
			}
		}
		// Rewrite them in PU-sized groups; a partial final group goes to
		// the SLC cache like any small write.
		lpas := make([]int64, 0, len(offs))
		payloads := make([][]byte, 0, len(offs))
		for _, off := range offs {
			lpas = append(lpas, sb.lpa[off])
			payloads = append(payloads, d.arr.Payload(d.arr.PPAOf(d.arr.StripeAddr(victim, off))))
			sb.valid[off] = false
			sb.validCount--
		}
		n := int64(len(lpas))
		var i int64
		var err error
		if i, done, err = d.programRun(done, lpas, payloads, true); err != nil {
			return at, err
		}
		if i < n {
			ws := make([]stagedWrite, 0, n-i)
			for ; i < n; i++ {
				// stageForGC may recurse into GC (drainStaging → ensureGC)
				// and erase this victim — whose now-zero valid count makes it
				// the best next victim — before staging copies the data, so
				// the remainder must own its bytes rather than keep borrowing
				// the victim's pooled payload slabs.
				var p []byte
				if payloads[i] != nil {
					p = append([]byte(nil), payloads[i]...)
				}
				ws = append(ws, stagedWrite{lpa: lpas[i], payload: p})
			}
			dn, err := d.stageForGC(done, ws)
			if err != nil {
				return at, err
			}
			if dn > done {
				done = dn
			}
		}
		d.stats.GCMigratedPages += int64(len(offs))
	}

	// Erase the victim on every chip and free it.
	block := d.arr.StripeAddr(victim, 0).Block
	for chip := 0; chip < d.chips; chip++ {
		end, err := d.arr.Erase(done, chip, block)
		if err != nil {
			return at, err
		}
		if end > done {
			done = end
		}
	}
	sb.inFree = true
	d.freeSBs = append(d.freeSBs, victim)
	d.stats.GCCycles++
	return done, nil
}

type stagedWrite struct {
	lpa     int64
	payload []byte
}

// stageForGC pushes GC leftovers smaller than a PU into the SLC cache.
func (d *Device) stageForGC(at sim.Time, ws []stagedWrite) (sim.Time, error) {
	if !d.staging.HasSpace(int64(len(ws))) {
		dn, err := d.drainStaging(at, int64(len(ws)))
		if err != nil {
			return at, err
		}
		at = dn
	}
	writes := make([]slc.Write, len(ws))
	for i, w := range ws {
		writes[i] = slc.Write{LPA: w.lpa, Payload: w.payload}
	}
	gidxs, _, done, err := d.staging.Append(at, writes)
	if err != nil {
		return at, err
	}
	for k, g := range gidxs {
		d.table[ws[k].lpa] = d.stagedBase + g
		d.cache.update(ws[k].lpa)
	}
	d.stats.StagedSectors += int64(len(ws))
	return done, nil
}

// drainStaging frees SLC space by migrating the valid sectors of the best
// victim staging superblock into the normal area (in full program units),
// then collecting the victim. Any sub-PU remainder stays valid in the
// victim and is migrated within staging by Collect via the GC reserve.
func (d *Device) drainStaging(at sim.Time, need int64) (sim.Time, error) {
	for !d.staging.HasSpace(need) {
		victim := d.staging.Victim()
		if victim < 0 {
			return at, fmt.Errorf("legacy: SLC cache exhausted")
		}
		var idxs []int64
		base := int64(victim) * d.staging.SectorsPerSuperblock()
		for off := int64(0); off < d.staging.SectorsPerSuperblock(); off++ {
			if d.staging.IsValid(base + off) {
				idxs = append(idxs, base+off)
			}
		}
		if n := int64(len(idxs)); n >= d.puSectors {
			done, err := d.staging.ReadSectors(at, idxs)
			if err != nil {
				return at, err
			}
			at = done
			if dn, err := d.ensureGC(at, n); err == nil {
				at = dn
			}
			lpas := make([]int64, n)
			payloads := make([][]byte, n)
			for i, idx := range idxs {
				lpa, err := d.staging.LPAAt(idx)
				if err != nil {
					return at, err
				}
				lpas[i] = lpa
				payloads[i] = d.staging.Payload(idx)
			}
			placed, dn, err := d.programRun(at, lpas, payloads, true)
			if err != nil {
				return at, err
			}
			at = dn
			for _, idx := range idxs[:placed] {
				if err := d.staging.Invalidate(idx); err != nil {
					return at, err
				}
			}
			d.stats.GCMigratedPages += placed
		}
		done, err := d.staging.Collect(at, victim, &tableRelocator{d: d})
		if err != nil {
			return at, err
		}
		at = done
	}
	return at, nil
}

// tableRelocator re-points the page table when the staging region's GC
// moves a sector.
type tableRelocator struct{ d *Device }

func (r *tableRelocator) Relocate(lpa, oldIdx, newIdx int64) error {
	d := r.d
	if lpa < 0 || lpa >= d.totalSectors {
		return fmt.Errorf("legacy: relocate of out-of-range LPA %d", lpa)
	}
	if d.table[lpa] != d.stagedBase+oldIdx {
		return fmt.Errorf("legacy: relocate mismatch for LPA %d", lpa)
	}
	d.table[lpa] = d.stagedBase + newIdx
	d.cache.update(lpa)
	return nil
}
