package ftl

import (
	"testing"

	"github.com/conzone/conzone/internal/nand"
	"github.com/conzone/conzone/internal/sim"
)

// TestPreWearAppliesOnceNotOnRecover pins the fleet-aging contract:
// Params.PreWearErases ages the media exactly once, at first build.
// Recover goes through NewWithArray on the surviving array, so a pre-worn
// device must come back from a remount with its wear unchanged — not aged
// by another PreWearErases.
func TestPreWearAppliesOnceNotOnRecover(t *testing.T) {
	p := testParams()
	p.PreWearErases = 500

	f, err := New(testGeo(), nand.DefaultLatencies(), p)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Array().EraseCount(0, 0); got != 500 {
		t.Fatalf("fresh pre-worn device: block erase count %d, want 500", got)
	}

	// Live a little (so recovery has state to scan), then remount.
	zcap := f.ZoneCapSectors()
	now := sim.Time(0)
	if now, err = f.Write(now, 0, make([][]byte, zcap)); err != nil {
		t.Fatal(err)
	}
	if now, err = f.FlushAll(now); err != nil {
		t.Fatal(err)
	}
	wearBefore := f.Wear()

	f2, _, err := Recover(f.Array(), p)
	if err != nil {
		t.Fatal(err)
	}
	wearAfter := f2.Wear()
	for i := range wearBefore.NormalSB {
		if wearAfter.NormalSB[i] != wearBefore.NormalSB[i] {
			t.Fatalf("remount changed normal superblock %d wear: %v -> %v",
				i, wearBefore.NormalSB[i], wearAfter.NormalSB[i])
		}
	}
	for i := range wearBefore.SLCSB {
		if wearAfter.SLCSB[i] != wearBefore.SLCSB[i] {
			t.Fatalf("remount changed SLC superblock %d wear: %v -> %v",
				i, wearBefore.SLCSB[i], wearAfter.SLCSB[i])
		}
	}
}

// TestPreWearValidation rejects negative pre-wear.
func TestPreWearValidation(t *testing.T) {
	p := testParams()
	p.PreWearErases = -1
	if _, err := New(testGeo(), nand.DefaultLatencies(), p); err == nil {
		t.Fatal("negative PreWearErases accepted")
	}
}
