package check

import (
	"testing"
)

// FuzzDeviceOpsCrash drives the crash-remount differential fuzzer: run a
// seeded op sequence, cut power at a seeded virtual instant, remount, and
// verify the durability contract (acked-durable survives, recovered state
// audits clean, the device keeps working).
func FuzzDeviceOpsCrash(f *testing.F) {
	f.Add(uint64(1), uint16(200))
	f.Add(uint64(0xC4A54), uint16(400))
	f.Add(uint64(0xDEADBEEF), uint16(333))
	f.Add(uint64(42), uint16(640))
	f.Add(uint64(0xB00), uint16(97))
	// Finish-heavy sequences whose cut fires: they exercise the pad-out and
	// the torn-finish recovery window.
	f.Add(uint64(0xF1A6), uint16(300))
	f.Add(uint64(0xF1A9), uint16(300))
	// A zone fills by writing, a finish of it follows, and the cut lands
	// before anything else drains its buffered tail (ROADMAP item 1, PR 22).
	f.Add(uint64(0xdeadbf04), uint16(611))
	f.Add(uint64(0xb07), uint16(546))
	f.Add(uint64(0xdeadbf0d), uint16(422))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16) {
		nOps := int(n)%1024 + 16
		if _, err := RunCrashSequence(seed, nOps, 32, false); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzDeviceOpsCrashFaults layers NAND fault injection under the power cut:
// program/erase failures, read retries and relocations all race the crash.
func FuzzDeviceOpsCrashFaults(f *testing.F) {
	f.Add(uint64(7), uint16(250))
	f.Add(uint64(0xFA017), uint16(500))
	f.Add(uint64(0x5EED), uint16(123))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16) {
		nOps := int(n)%1024 + 16
		if _, err := RunCrashSequence(seed, nOps, 32, true); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCrashFuzzSeeds pins a deterministic corpus for CI: every seed must
// pass in both fault modes, and the corpus as a whole must actually exercise
// the crash path (at least one cut fires) or it has gone stale.
func TestCrashFuzzSeeds(t *testing.T) {
	// 0xF1A6 and 0xF1A9 are finish-heavy (12 finishes each at 300 ops) and
	// fire their cut in both fault modes, covering the pad-out windows. The
	// last three finish a zone that filled by writing while its tail is still
	// buffered; before PR 22 that finish drained nothing and the acknowledged
	// tail died at the cut ("survivor matches none of the acceptable
	// versions").
	seeds := []struct {
		seed uint64
		nOps int
	}{{1, 300}, {2, 300}, {3, 300}, {42, 300}, {0x5EED, 300}, {0xC4A54, 300}, {0xDEADBEEF, 300},
		{0xA11CE, 300}, {0xF1A6, 300}, {0xF1A9, 300}, {0xdeadbf04, 627}, {0xb07, 562}, {0xdeadbf0d, 438}}
	crashes := 0
	for _, s := range seeds {
		for _, withFaults := range []bool{false, true} {
			crashed, err := RunCrashSequence(s.seed, s.nOps, 64, withFaults)
			if err != nil {
				t.Errorf("seed %#x x%d faults=%v: %v", s.seed, s.nOps, withFaults, err)
			}
			if crashed {
				crashes++
			}
		}
	}
	if crashes == 0 {
		t.Fatal("no seed in the corpus fired its power cut; corpus is stale")
	}
	t.Logf("%d/%d runs crashed and remounted", crashes, len(seeds)*2)
}

// TestCrashFuzz10K is the acceptance run: a 10000-op fixed-seed sequence
// crashed at a seeded instant, remounted, verified sector by sector, then
// replayed to completion.
func TestCrashFuzz10K(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-op crash fuzz skipped in -short mode")
	}
	crashed, err := RunCrashSequence(0x5EED1, 10000, 128, false)
	if err != nil {
		t.Fatal(err)
	}
	if !crashed {
		t.Fatal("10k-op run never hit its power cut")
	}
	crashed, err = RunCrashSequence(0x5EED2, 10000, 128, true)
	if err != nil {
		t.Fatal(err)
	}
	if !crashed {
		t.Fatal("10k-op faulty run never hit its power cut")
	}
}
