package check

import (
	"testing"

	"github.com/conzone/conzone/internal/ftl"
)

// FuzzDeviceOps is the Go-native fuzz target: every (seed, length) pair
// derives a deterministic op sequence that is replayed against all five
// personalities with oracle-verified reads and periodic audits.
//
// Run it with:
//
//	go test -fuzz=FuzzDeviceOps -fuzztime=30s ./internal/check
func FuzzDeviceOps(f *testing.F) {
	f.Add(uint64(1), uint16(200))
	f.Add(uint64(0xC0FFEE), uint16(400))
	f.Add(uint64(0xDEADBEEF), uint16(700))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16) {
		nOps := int(n)%1024 + 16
		if err := RunSequence(seed, nOps, 32); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzDeviceOpsFaults is the fault-enabled fuzz target: the same seeded op
// sequences replayed against ConZone with the NAND fault model armed
// (FaultFuzzConfig). Program and erase failures must be absorbed by
// bad-block relocation and retirement without ever diverging from the
// oracle or tripping an audit, and spare exhaustion must end the run as a
// clean read-only degradation.
//
// Run it with:
//
//	go test -fuzz=FuzzDeviceOpsFaults -fuzztime=30s ./internal/check
func FuzzDeviceOpsFaults(f *testing.F) {
	f.Add(uint64(7), uint16(300))
	f.Add(uint64(0xBAD1), uint16(500))
	f.Add(uint64(0xFA11ED), uint16(900))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16) {
		nOps := int(n)%1024 + 16
		if err := RunSequenceFaults(seed, nOps, 32); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFuzzFaultSeeds is the deterministic smoke run over the fault-enabled
// seed corpus (the same pairs FuzzDeviceOpsFaults starts from), so plain
// `go test` exercises the fault-recovery paths without -fuzz.
func TestFuzzFaultSeeds(t *testing.T) {
	seeds := []struct {
		seed uint64
		n    int
	}{{7, 300}, {0xBAD1, 500}, {0xFA11ED, 900}}
	for _, s := range seeds {
		nOps := s.n%1024 + 16
		if err := RunSequenceFaults(s.seed, nOps, 32); err != nil {
			t.Fatalf("seed %#x: %v", s.seed, err)
		}
	}
}

// TestFuzzFaultsInjectSomething guards the fault corpus against silently
// going stale: at least one corpus seed must actually produce program or
// erase failures on the replayed device, or the fault fuzz proves nothing.
func TestFuzzFaultsInjectSomething(t *testing.T) {
	cfg := FaultFuzzConfig(0xBAD1)
	r, err := newReplayer(ConZone, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops := GenOps(0xBAD1, 516, r.zd.NumZones(), r.zcap)
	for _, op := range ops {
		if err := r.step(op); err != nil {
			break // clean early end (read-only / no space) is fine here
		}
	}
	st := r.dev.(*ftl.FTL).FaultInjector().Stats()
	if st.ProgramFails == 0 && st.EraseFails == 0 && st.ReadRetries == 0 {
		t.Fatalf("fault corpus seed injected nothing: %+v", st)
	}
}

// TestFuzzDeviceOps10K is the acceptance run: a fixed seed drives at least
// 10k ops through every personality, with every read checked against the
// oracle and the ConZone audit clean after every 64-op batch.
func TestFuzzDeviceOps10K(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-op differential run skipped in -short mode")
	}
	const nOps = 10000
	cfg := FuzzConfig()
	probe, err := cfg.NewConZone()
	if err != nil {
		t.Fatal(err)
	}
	ops := GenOps(0x5EED1, nOps, probe.NumZones(), probe.ZoneCapSectors())
	for _, p := range Personalities {
		executed, err := Replay(p, cfg, ops, 64)
		if err != nil {
			min := Shrink(p, cfg, ops, 64)
			t.Fatalf("%s: %v\nminimal reproducer (%d ops):\n%s", p, err, len(min), FormatOps(min))
		}
		if executed < nOps {
			t.Fatalf("%s: device filled up after %d/%d ops; enlarge FuzzConfig staging", p, executed, nOps)
		}
	}
}

// TestFuzzStrategyVariants replays a moderate sequence against ConZone
// configured with each L2P search strategy, a conventional zone, and the
// L2P persistence log — the corners the default fuzz config leaves off.
func TestFuzzStrategyVariants(t *testing.T) {
	for _, s := range []ftl.Strategy{ftl.Bitmap, ftl.Multiple, ftl.Pinned} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			cfg := FuzzConfig()
			cfg.FTL.Search = s
			cfg.FTL.ConventionalZones = 1
			cfg.FTL.L2PLogEntries = 512
			probe, err := cfg.NewConZone()
			if err != nil {
				t.Fatal(err)
			}
			ops := GenOps(0xA11CE, 3000, probe.NumZones(), probe.ZoneCapSectors())
			if _, err := Replay(ConZone, cfg, ops, 32); err != nil {
				min := Shrink(ConZone, cfg, ops, 32)
				t.Fatalf("%v\nminimal reproducer (%d ops):\n%s", err, len(min), FormatOps(min))
			}
		})
	}
}

// TestGenOpsDeterministic pins the seeded generator: the same seed must
// yield the same sequence, and different seeds must diverge.
func TestGenOpsDeterministic(t *testing.T) {
	a := GenOps(42, 500, 10, 512)
	b := GenOps(42, 500, 10, 512)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	c := GenOps(43, 500, 10, 512)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 generated identical sequences")
	}
}
