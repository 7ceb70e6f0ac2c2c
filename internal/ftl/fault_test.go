package ftl

import (
	"errors"
	"testing"

	"github.com/conzone/conzone/internal/fault"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/slc"
)

// faultFTL builds the test FTL with spares reserved and a fault script.
func faultFTL(t *testing.T, spares int, scripts ...fault.Script) *FTL {
	t.Helper()
	return newTestFTL(t, func(p *Params) {
		p.SpareSuperblocks = spares
		p.Faults = &fault.Config{Scripts: scripts}
	})
}

// TestScriptedProgramFailRelocates fails the fifth program unit of zone 0's
// superblock and checks the recovery end to end: the superblock's four
// already-programmed units move to a spare, the bad block is retired and
// recorded, the failed unit retries on the spare, and every sector — moved
// or new — reads back intact.
func TestScriptedProgramFailRelocates(t *testing.T) {
	fn := testGeo().FirstNormalBlock()
	// Zone 0 binds superblock 0 (block fn). Writes flush a superpage at a
	// time (4 PUs, one per chip), so the second superpage carries the
	// block's second chip-0 program: script N=2.
	f := faultFTL(t, 2, fault.Script{Chip: 0, Block: fn, Op: fault.OpProgram, N: 2})
	if want := testGeo().NormalBlocks() - 2; f.NumZones() != want {
		t.Fatalf("NumZones = %d, want %d (spares excluded)", f.NumZones(), want)
	}
	now := sim.Time(0)
	for off := int64(0); off < 192; off += 24 {
		d, err := f.Write(now, off, payloadsFor(off, 24))
		if err != nil {
			t.Fatalf("write at %d: %v", off, err)
		}
		now = d
	}
	verifyRead(t, f, now, 0, 192)

	st := f.Stats()
	if fs := f.FaultInjector().Stats(); fs.ProgramFails != 1 || st.Relocations != 1 || st.RetiredSuperblocks != 1 {
		t.Fatalf("stats = %+v, faults = %+v, want 1 program fail, 1 relocation, 1 retired superblock", st, fs)
	}
	if st.RelocatedSectors != 96 {
		t.Fatalf("RelocatedSectors = %d, want 96 (four programmed units moved)", st.RelocatedSectors)
	}
	bbt := f.BadBlockTable()
	if len(bbt) != 1 || bbt[0].Chip != 0 || bbt[0].Block != fn || bbt[0].Op != fault.OpProgram {
		t.Fatalf("bad-block table = %+v, want chip 0 block %d program", bbt, fn)
	}
	if retired := f.RetiredSBList(); len(retired) != 1 || retired[0] != 0 {
		t.Fatalf("retired superblocks = %v, want [0]", retired)
	}
	if f.ReadOnly() {
		t.Fatal("device degraded to read-only after a recovered failure")
	}
}

// TestScriptedEraseFailRetires fails one chip's erase during a zone reset:
// the reset must still succeed, the superblock retires in place, and the
// zone stays writable on a fresh superblock.
func TestScriptedEraseFailRetires(t *testing.T) {
	fn := testGeo().FirstNormalBlock()
	f := faultFTL(t, 1, fault.Script{Chip: 1, Block: fn, Op: fault.OpErase, N: 1})
	now := sim.Time(0)
	d, err := f.Write(now, 0, payloadsFor(0, 96)) // one full superpage: binds and programs
	if err != nil {
		t.Fatal(err)
	}
	if now, err = f.ResetZone(d, 0); err != nil {
		t.Fatalf("reset with a failing erase must still succeed: %v", err)
	}
	st := f.Stats()
	if fs := f.FaultInjector().Stats(); fs.EraseFails != 1 || st.RetiredSuperblocks != 1 {
		t.Fatalf("stats = %+v, faults = %+v, want 1 erase fail and 1 retired superblock", st, fs)
	}
	bbt := f.BadBlockTable()
	if len(bbt) != 1 || bbt[0].Chip != 1 || bbt[0].Block != fn || bbt[0].Op != fault.OpErase {
		t.Fatalf("bad-block table = %+v, want chip 1 block %d erase", bbt, fn)
	}
	for _, sb := range f.FreeSBList() {
		if sb == 0 {
			t.Fatal("retired superblock 0 returned to the free pool")
		}
	}
	// The zone rebinds onto a healthy superblock and works as before.
	if d, err = f.Write(now, 0, payloadsFor(0, 96)); err != nil {
		t.Fatalf("write after retirement: %v", err)
	}
	verifyRead(t, f, d, 0, 96)
	if f.ReadOnly() {
		t.Fatal("device degraded to read-only with spares in the pool")
	}
}

// TestSpareExhaustionReadOnly drives relocation into an empty spare pool:
// the write must fail with the typed read-only sentinel (never a panic),
// every later write-class command must be rejected the same way, and all
// acknowledged data must remain readable.
func TestSpareExhaustionReadOnly(t *testing.T) {
	geo := testGeo()
	fn := geo.FirstNormalBlock()
	// One spare. Zone 0's block fails its second chip-0 program (the second
	// superpage) and the spare fails its first, so the relocation retires
	// the spare and finds the pool empty.
	f := faultFTL(t, 1,
		fault.Script{Chip: 0, Block: fn, Op: fault.OpProgram, N: 2, Repeat: true},
		fault.Script{Chip: 0, Block: fn + geo.NormalBlocks() - 1, Op: fault.OpProgram, N: 1, Repeat: true},
	)
	zcap := f.ZoneCapSectors()
	now := sim.Time(0)
	wr := func(zone int, off, n int64) {
		t.Helper()
		d, err := f.Write(now, int64(zone)*zcap+off, payloadsFor(int64(zone)*zcap+off, n))
		if err != nil {
			t.Fatalf("write zone %d off %d: %v", zone, off, err)
		}
		now = d
	}
	wr(0, 0, 96) // binds superblock 0, programs superpage 1 (chip-0 occurrence 1)
	for z := 1; z < f.NumZones(); z++ {
		wr(z, 0, 96) // bind every other zone so only the spare stays free
	}
	_, err := f.Write(now, 96, payloadsFor(96, 96)) // superpage 2: chip 0 fails, spare fails too
	if !errors.Is(err, fault.ErrReadOnly) {
		t.Fatalf("spare exhaustion returned %v, want fault.ErrReadOnly", err)
	}
	if !f.ReadOnly() {
		t.Fatal("device must report read-only after spare exhaustion")
	}
	if _, err := f.Write(now, zcap+24, payloadsFor(zcap+24, 24)); !errors.Is(err, fault.ErrReadOnly) {
		t.Fatalf("write after degradation returned %v, want fault.ErrReadOnly", err)
	}
	if _, err := f.ResetZone(now, 1); !errors.Is(err, fault.ErrReadOnly) {
		t.Fatalf("reset after degradation returned %v, want fault.ErrReadOnly", err)
	}
	// Everything acknowledged before the failure is still there: zone 0's
	// four programmed units on its original superblock, other zones' data.
	verifyRead(t, f, now, 0, 96)
	verifyRead(t, f, now, zcap, 24)
	if st := f.Stats(); st.RetiredSuperblocks != 1 {
		t.Fatalf("RetiredSuperblocks = %d, want 1 (the consumed spare)", st.RetiredSuperblocks)
	}
}

// TestSLCRetirementReadOnly retires the staging region out from under the
// FTL: with every SLC erase scripted to fail, garbage collection retires
// superblock after superblock until fewer than two remain usable, at which
// point the device must degrade to read-only — and everything acknowledged
// up to that moment must still read back.
func TestSLCRetirementReadOnly(t *testing.T) {
	geo := testGeo()
	scripts := make([]fault.Script, geo.SLCBlocks)
	for b := 0; b < geo.SLCBlocks; b++ {
		scripts[b] = fault.Script{Chip: 0, Block: b, Op: fault.OpErase, N: 1, Repeat: true}
	}
	f := faultFTL(t, 0, scripts...)
	zcap := f.ZoneCapSectors()
	now := sim.Time(0)
	acked := make([]int64, f.NumZones()) // per-zone acknowledged write pointer
	var degraded bool
	for i := 0; i < 3000 && !degraded; i++ {
		zone := i % f.NumZones()
		if acked[zone]+4 > zcap {
			continue
		}
		lba := int64(zone)*zcap + acked[zone]
		d, err := f.Write(now, lba, payloadsFor(lba, 4))
		if err == nil {
			acked[zone] += 4
			now = d
			if d, err = f.Flush(now, zone); err == nil {
				now = d
				continue
			}
		}
		switch {
		case errors.Is(err, fault.ErrReadOnly):
			degraded = true
		case errors.Is(err, slc.ErrNoSpace):
			// A failed collection retired one superblock; keep pushing.
		default:
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if !degraded {
		t.Fatal("staging retirement never degraded the device to read-only")
	}
	if !f.ReadOnly() {
		t.Fatal("ReadOnly() must report the degradation")
	}
	if got := f.Staging().RetiredSuperblocks(); got < geo.SLCBlocks-1 {
		t.Fatalf("staging retired %d superblocks, want at least %d", got, geo.SLCBlocks-1)
	}
	// No acknowledged write may be lost: every sector written before the
	// degradation still reads back, including those on retired superblocks.
	for zone := 0; zone < f.NumZones(); zone++ {
		if acked[zone] > 0 {
			verifyRead(t, f, now, int64(zone)*zcap, acked[zone])
		}
	}
}
