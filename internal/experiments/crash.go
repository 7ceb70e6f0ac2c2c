package experiments

import (
	"fmt"

	"github.com/conzone/conzone/internal/check"
)

// crashSeeds is how many consecutive seeds the crash experiment runs.
const crashSeeds = 8

// runCrash drives the crash-remount differential fuzzer from internal/check:
// each seed runs a generated op sequence twice — once uninterrupted to learn
// its virtual duration, once with a power cut armed at a seeded instant
// inside it — then remounts the crashed device and verifies that everything a
// flush barrier acknowledged reads back, the recovered state is audit-clean,
// and the device keeps working for the rest of the sequence. Seeds alternate
// between a healthy device and one with the NAND fault model layered under
// the power cut. The sequences run on check's own small device, not on the
// caller's configuration.
func runCrash(opt Options, baseSeed uint64) Report {
	nOps := 600
	if opt.Reduced() {
		nOps = 200
	}
	rep := Report{Title: fmt.Sprintf("Crash-remount differential fuzz: %d seeds x %d ops", crashSeeds, nOps), Pass: true}

	t := Table{Header: []string{"seed", "faults", "crashed", "result"}}
	crashes, failures := 0, 0
	for i := 0; i < crashSeeds; i++ {
		seed := baseSeed + uint64(i)
		withFaults := i%2 == 1
		crashed, err := check.RunCrashSequence(seed, nOps, 64, withFaults)
		result := "ok"
		if err != nil {
			result = err.Error()
			failures++
		}
		if crashed {
			crashes++
		}
		t.Add(fmt.Sprintf("%#x", seed), withFaults, crashed, result)
	}
	t.Notes = []string{"", fmt.Sprintf("%d/%d runs crashed and remounted, %d failed", crashes, crashSeeds, failures)}
	switch {
	case failures > 0:
		rep.fail("%d of %d seeds failed", failures, crashSeeds)
	case crashes == 0:
		rep.fail("no seed fired its power cut (stale parameters?)")
	default:
		t.Notes = append(t.Notes, "durability contract held: acked-durable data survived every remount")
	}
	rep.Tables = []Table{t}
	return rep
}
