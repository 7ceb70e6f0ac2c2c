package legacy

import (
	"bytes"
	"fmt"

	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/slc"
)

// ensureGC keeps enough free normal superblocks to absorb an incoming run
// of n sectors, running greedy garbage collection when the free pool drops
// below the configured target (paper Fig. 1(a) E.1/E.2: legacy devices
// must move valid pages themselves). It is one collection at a time: a
// victim's sub-unit remainder is staged only once the victim is erased and
// back on the free list, so the drain that staging may trigger — and the
// collections that drain may run — never meet a half-collected superblock.
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
		rest, done, err := d.collectSB(at, victim)
		if err != nil {
			return at, err
		}
		at = done
		if len(rest) > 0 {
			if at, err = d.stage(at, rest); err != nil {
				return at, err
			}
		}
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

// collectSB migrates the victim's valid sectors to the write pointer in
// whole program units, erases it and frees it. The sub-unit remainder is
// returned for the caller to stage like any small write; it owns its bytes,
// because the erase recycles the victim's payload slabs.
func (d *Device) collectSB(at sim.Time, victim int) (rest []slc.Write, done sim.Time, err error) {
	sb := &d.sbs[victim]
	done = at

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
				return nil, at, err
			}
			if end > done {
				done = end
			}
		}
		// Rewrite them in PU-sized groups.
		lpas := make([]int64, 0, len(offs))
		payloads := make([][]byte, 0, len(offs))
		for _, off := range offs {
			lpas = append(lpas, sb.lpa[off])
			payloads = append(payloads, d.arr.Payload(d.arr.PPAOf(d.arr.StripeAddr(victim, off))))
			sb.valid[off] = false
			sb.validCount--
		}
		var i int64
		if i, done, err = d.programRun(done, lpas, payloads, true); err != nil {
			return nil, at, err
		}
		for ; i < int64(len(lpas)); i++ {
			rest = append(rest, slc.Write{LPA: lpas[i], Payload: bytes.Clone(payloads[i])})
		}
		d.stats.GCMigratedPages += int64(len(offs))
	}

	// Erase the victim on every chip and free it.
	block := d.arr.StripeAddr(victim, 0).Block
	for chip := 0; chip < d.chips; chip++ {
		end, err := d.arr.Erase(done, chip, block)
		if err != nil {
			return nil, at, err
		}
		if end > done {
			done = end
		}
	}
	sb.inFree = true
	d.freeSBs = append(d.freeSBs, victim)
	d.stats.GCCycles++
	return rest, done, nil
}

// stage puts a sub-unit remainder — of a host flush or of a collection —
// into the SLC cache, draining the cache first when it is full, and points
// the page table at the staged copies.
func (d *Device) stage(at sim.Time, ws []slc.Write) (sim.Time, error) {
	if n := int64(len(ws)); !d.staging.HasSpace(n) {
		dn, err := d.drainStaging(at, n)
		if err != nil {
			return at, err
		}
		at = dn
	}
	gidxs, _, done, err := d.staging.Append(at, ws)
	if err != nil {
		return at, err
	}
	for k, g := range gidxs {
		d.table[ws[k].LPA] = d.stagedBase + g
		d.cache.update(ws[k].LPA)
	}
	d.stats.StagedSectors += int64(len(ws))
	return done, nil
}

// drainStaging frees SLC space by migrating the valid sectors of the best
// victim staging superblock into the normal area (in full program units),
// then collecting the victim. Any sub-PU remainder stays valid in the
// victim and is migrated within staging by Collect via the GC reserve.
//
// Room for a whole staging superblock is reserved in the normal area before
// the victim is chosen: ensureGC may stage a remainder and so drain (and
// collect) staging itself, which must never happen between gathering a
// victim's indices and invalidating them.
func (d *Device) drainStaging(at sim.Time, need int64) (sim.Time, error) {
	sps := d.staging.SectorsPerSuperblock()
	for !d.staging.HasSpace(need) {
		var err error
		if at, err = d.ensureGC(at, sps); err != nil {
			return at, err
		}
		if d.staging.HasSpace(need) {
			break // the reservation drained enough on its own
		}
		victim := d.staging.Victim()
		if victim < 0 {
			return at, fmt.Errorf("legacy: SLC cache exhausted")
		}
		var idxs []int64
		base := int64(victim) * sps
		for off := int64(0); off < sps; off++ {
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
