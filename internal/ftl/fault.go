package ftl

import (
	"errors"
	"fmt"

	"github.com/conzone/conzone/internal/fault"
	"github.com/conzone/conzone/internal/nand"
	"github.com/conzone/conzone/internal/obs"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/slc"
)

// This file is the FTL's bad-block management: the error paths that turn
// NAND-level failures (internal/fault beneath internal/nand) into grown-bad
// bookkeeping, spare-superblock relocation, and — once the spares run out —
// a sticky read-only degradation instead of data loss or a panic.

// BadBlock records one grown-bad per-chip block in the bad-block table.
type BadBlock struct {
	Chip  int      // chip the failure occurred on
	Block int      // per-chip block index
	Op    fault.Op // operation whose failure retired it
}

// BadBlockTable returns a copy of the grown-bad block records, in discovery
// order.
func (f *FTL) BadBlockTable() []BadBlock { return append([]BadBlock(nil), f.badBlocks...) }

// RetiredSBList returns a copy of the retired normal-superblock ids, in
// retirement order.
func (f *FTL) RetiredSBList() []int { return append([]int(nil), f.retiredSBs...) }

// SpareSuperblocks returns how many superblocks the configuration reserved
// as spares.
func (f *FTL) SpareSuperblocks() int { return f.params.SpareSuperblocks }

// checkWritable gates write-class entry points once the device degraded.
func (f *FTL) checkWritable() error {
	if f.readOnly {
		return fmt.Errorf("ftl: write-class command rejected: %w", fault.ErrReadOnly)
	}
	return nil
}

// stagingErr converts a staging-space failure into the read-only sentinel
// when SLC retirement — not ordinary pressure — is what wedged the region:
// with fewer than two usable superblocks GC can never free space again.
func (f *FTL) stagingErr(err error) error {
	if errors.Is(err, slc.ErrNoSpace) && f.staging.UsableSuperblocks() < 2 {
		f.readOnly = true
		return fmt.Errorf("ftl: SLC staging region lost to retirement: %w", fault.ErrReadOnly)
	}
	return err
}

// retireSB freezes a normal superblock out of service and records the
// grown-bad block that condemned it. Retired superblocks never return to
// the free pool; their per-chip blocks keep whatever state they had.
func (f *FTL) retireSB(sb int, bb BadBlock) {
	f.retiredSBs = append(f.retiredSBs, sb)
	f.badBlocks = append(f.badBlocks, bb)
	f.stats.RetiredSuperblocks++
	// Journal the retirement so a remount rebuilds the bad-block table and
	// keeps the superblock out of the scan and the free pool.
	f.arr.MetaAppend(nand.MetaRecord{Kind: nand.MetaRetireSB, SB: sb, Chip: bb.Chip, Block: bb.Block, Op: int(bb.Op)})
}

// recoverPUProgram handles a program failure in the zone's bound superblock:
// relocate the superblock's contents to a spare, retire the bad one, and
// retry the failed program unit on the spare — repeating if spares turn out
// bad too, until the pool is exhausted (read-only degradation).
func (f *FTL) recoverPUProgram(at sim.Time, zone int, puStart int64, failedChip int, sectors [][]byte) (release, done sim.Time, err error) {
	for {
		d, err := f.relocateZoneSB(at, zone, failedChip)
		if err != nil {
			return at, at, err
		}
		addr, err := f.headLoc(zone, puStart)
		if err != nil {
			return at, at, err
		}
		release, done, err = f.arr.ProgramPU(d, addr.Chip, addr.Block, addr.Page-addr.Page%f.pagesPerPU, sectors)
		if err == nil {
			return release, done, nil
		}
		if !errors.Is(err, nand.ErrProgramFail) {
			return at, at, err
		}
		at = d
		failedChip = addr.Chip
	}
}

// relocateZoneSB re-homes the zone's bound superblock onto a spare: every
// chip's programmed extent is copied (reliable reads + programs at the same
// positions) into the spare, the zone is re-bound, and the bad superblock
// is retired. Head PSNs resolve through the zone binding, so the mapping
// table needs no update — the relocation is invisible to the read path.
func (f *FTL) relocateZoneSB(at sim.Time, zone, failedChip int) (sim.Time, error) {
	zs := &f.zstate[zone]
	oldSB := zs.sb
	if oldSB < 0 {
		return at, fmt.Errorf("ftl: relocation of unbound zone %d", zone)
	}
	oldBlock := f.geo.FirstNormalBlock() + oldSB
	for {
		if len(f.freeSBs) == 0 {
			f.readOnly = true
			return at, fmt.Errorf("ftl: relocating zone %d superblock %d: %w",
				zone, oldSB, fault.ErrReadOnly)
		}
		newSB := f.freeSBs[0]
		f.freeSBs = f.freeSBs[1:]
		newBlock := f.geo.FirstNormalBlock() + newSB
		done, copied, badChip, progFailed, err := f.copySB(at, oldBlock, newBlock)
		if err != nil {
			return at, err
		}
		if progFailed {
			// The spare grew a bad block mid-copy: retire it too and draw
			// the next one. The source superblock is still intact.
			f.retireSB(newSB, BadBlock{Chip: badChip, Block: newBlock, Op: fault.OpProgram})
			at = done
			continue
		}
		zs.sb = newSB
		f.retireSB(oldSB, BadBlock{Chip: failedChip, Block: oldBlock, Op: fault.OpProgram})
		f.stats.Relocations++
		f.stats.RelocatedSectors += copied
		f.arr.Engine().Observe(done)
		f.record(obs.StageFaultRelocate, obs.CauseNone, at, done, zone, -1, copied)
		return done, nil
	}
}

// copySB copies the programmed extent of every chip's src block into the
// matching positions of dst. Reads use the reliable path (retry latency,
// never data loss); programs may fail — progFailed then reports it with the
// failing chip, and the caller retires dst. Timing: chips copy in parallel,
// each chaining its own reads and programs.
func (f *FTL) copySB(at sim.Time, srcBlock, dstBlock int) (done sim.Time, copied int64, badChip int, progFailed bool, err error) {
	nsect := int(f.puSectors)
	done = at
	for chip := 0; chip < f.geo.Chips(); chip++ {
		extent := f.arr.NextProgramSector(chip, srcBlock)
		t := at
		for s := 0; s < extent; s += nsect {
			page0 := s / f.spp
			rd := t
			for pg := 0; pg < f.pagesPerPU; pg++ {
				d, err := f.arr.ReadPageReliable(t, chip, srcBlock, page0+pg, f.geo.PageSize)
				if err != nil {
					return at, 0, 0, false, err
				}
				if d > rd {
					rd = d
				}
			}
			// The media already holds the bytes, so the unit is programmed
			// without data.
			_, d, perr := f.arr.ProgramPU(rd, chip, dstBlock, page0, nil)
			if perr != nil {
				if errors.Is(perr, nand.ErrProgramFail) {
					if d > done {
						done = d
					}
					return done, copied, chip, true, nil
				}
				return at, 0, 0, false, perr
			}
			// The relocated copies keep their original OOB stamps (same
			// logical addresses, same positions in global program order)
			// and share their source's payload slabs.
			base := f.ppaOf(nand.Addr{Chip: chip, Block: srcBlock, Page: page0})
			dstBase := f.ppaOf(nand.Addr{Chip: chip, Block: dstBlock, Page: page0})
			for k := 0; k < nsect; k++ {
				f.arr.CopyOOB(dstBase+nand.PPA(k), base+nand.PPA(k))
				f.arr.SharePayload(dstBase+nand.PPA(k), base+nand.PPA(k))
			}
			t = d
			copied += int64(nsect)
		}
		if t > done {
			done = t
		}
	}
	return done, copied, 0, false, nil
}
