package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"github.com/conzone/conzone/internal/obs"
)

func TestAddSumsCountersRecomputesRatios(t *testing.T) {
	a, b := mkStats(1), mkStats(3)
	a.Occupancy.ReadOnly = false
	b.Occupancy.ReadOnly = true

	m := Add(a, b)
	if m.FTL.HostWrittenBytes != 4000 || m.NAND.BytesProgrammed != 6000 {
		t.Fatalf("counters not summed: %+v", m.FTL)
	}
	if m.Cache.Hits != 120 || m.Cache.Misses != 40 {
		t.Fatalf("cache counters not summed: %+v", m.Cache)
	}
	if m.GrownBadBlocks != 4 || m.PowerCuts != 4 || m.Recoveries != 4 {
		t.Fatal("top-level counters not summed")
	}
	if m.Occupancy.BufferedSectors != 20 {
		t.Fatal("occupancy gauges not summed")
	}
	if !m.Occupancy.ReadOnly {
		t.Fatal("ReadOnly must OR across devices")
	}
	// Ratios recomputed from the sums, not averaged.
	if want := 6000.0 / 4000.0; m.WAF != want {
		t.Fatalf("WAF = %v, want %v", m.WAF, want)
	}
	if want := 40.0 / 160.0; m.L2PMissRatio != want {
		t.Fatalf("L2PMissRatio = %v, want %v", m.L2PMissRatio, want)
	}
}

func TestAddZeroIdentity(t *testing.T) {
	var zero Stats
	s := mkStats(5)
	s.WAF = 1.5
	s.L2PMissRatio = 0.25
	got := Add(s, zero)
	if got != s {
		t.Fatalf("Add(s, zero) changed s:\n%+v\n%+v", s, got)
	}
	if got = Add(zero, s); got != s {
		t.Fatalf("Add(zero, s) != s:\n%+v\n%+v", s, got)
	}
}

func TestSumOrderIndependent(t *testing.T) {
	snaps := []Stats{mkStats(1), mkStats(2), mkStats(7)}
	fwd := Sum(snaps)
	rev := Sum([]Stats{snaps[2], snaps[1], snaps[0]})
	if fwd != rev {
		t.Fatalf("Sum depends on order:\n%+v\n%+v", fwd, rev)
	}
}

// TestExposeStatsGroupsByMetric checks the multi-cohort exposition stays
// valid: exactly one HELP/TYPE header per metric, with one labelled sample
// per set under it, in set order.
func TestExposeStatsGroupsByMetric(t *testing.T) {
	var buf bytes.Buffer
	err := obs.WriteExposition(&buf, func(e *obs.Exposition) {
		ExposeStats(e, "cohort", []string{"fresh", "worn"}, mkStats(1), mkStats(2))
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	if n := strings.Count(out, "# HELP conzone_ftl_host_written_bytes_total"); n != 1 {
		t.Fatalf("%d HELP headers for one metric", n)
	}
	for _, want := range []string{
		`conzone_ftl_host_written_bytes_total{cohort="fresh"} 1000`,
		`conzone_ftl_host_written_bytes_total{cohort="worn"} 2000`,
		`conzone_cache_hits_total{cohort="fresh"} 30`,
		`conzone_cache_hits_total{cohort="worn"} 60`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
	// Samples of one metric must sit adjacent under its single header —
	// scrape parsers reject interleaved families.
	fresh := strings.Index(out, `conzone_ftl_host_written_bytes_total{cohort="fresh"}`)
	worn := strings.Index(out, `conzone_ftl_host_written_bytes_total{cohort="worn"}`)
	if fresh == -1 || worn == -1 || worn < fresh {
		t.Fatal("labelled samples missing or out of set order")
	}
	if between := out[fresh:worn]; strings.Contains(between, "# HELP") {
		t.Fatal("another metric's header interleaves one family's samples")
	}
}

// TestWritePrometheusSingleUnlabeledUnchanged pins that a single device's
// unlabeled exposition is the one-set, label-free case of ExposeStats and
// keeps the sample format scrapes and the CI greps depend on.
func TestWritePrometheusSingleUnlabeledUnchanged(t *testing.T) {
	s := mkStats(2)
	var direct, viaSets bytes.Buffer
	if err := obs.WriteExposition(&direct, s.Expose); err != nil {
		t.Fatal(err)
	}
	err := obs.WriteExposition(&viaSets, func(e *obs.Exposition) {
		ExposeStats(e, "", nil, s)
	})
	if err != nil {
		t.Fatal(err)
	}
	if direct.String() != viaSets.String() {
		t.Fatal("single unlabeled exposition differs from the one-set ExposeStats path")
	}
	out := direct.String()
	for _, want := range []string{
		"# HELP conzone_ftl_host_written_bytes_total Unified device snapshot field conzone_ftl_host_written_bytes_total.\n",
		"# TYPE conzone_ftl_host_written_bytes_total counter\n",
		"conzone_ftl_host_written_bytes_total 2000\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("unlabeled exposition format changed: missing %q", want)
		}
	}
	if strings.Contains(out, "{") {
		t.Fatal("unlabeled exposition carries a label set")
	}
}
