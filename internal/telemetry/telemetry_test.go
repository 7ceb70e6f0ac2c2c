package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/ftl"
	"github.com/conzone/conzone/internal/obs"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
)

// mkStats builds a Stats with recognizable counter values scaled by k.
func mkStats(k int64) Stats {
	var s Stats
	s.FTL.HostWrittenBytes = 1000 * k
	s.NAND.BytesProgrammed = 1500 * k
	s.Cache.Hits = 30 * k
	s.Cache.Misses = 10 * k
	s.Staging.Migrated = 7 * k
	s.Fault.ReadRetries = 2 * k
	s.FTL.RetiredSuperblocks = k
	s.PowerCuts = k
	s.Recoveries = k
	s.Occupancy.BufferedSectors = 5 * k
	s.Occupancy.SLCValidSectors = 11 * k
	return s
}

func TestDeltaSubtractsCountersCopiesGauges(t *testing.T) {
	d := mkStats(3).Delta(mkStats(1))
	if d.FTL.HostWrittenBytes != 2000 || d.NAND.BytesProgrammed != 3000 {
		t.Fatalf("byte deltas: %+v", d)
	}
	if d.WAF != 1.5 {
		t.Fatalf("interval WAF = %v, want 1.5", d.WAF)
	}
	if d.L2PMissRatio != 0.25 {
		t.Fatalf("interval miss ratio = %v, want 0.25", d.L2PMissRatio)
	}
	if d.Fault.ReadRetries != 4 || d.FTL.RetiredSuperblocks != 2 || d.PowerCuts != 2 || d.Recoveries != 2 {
		t.Fatalf("robustness deltas: %+v", d)
	}
	// Occupancy gauges are the *current* readings, not differences.
	if d.Occupancy != mkStats(3).Occupancy {
		t.Fatalf("occupancy not copied: %+v", d.Occupancy)
	}
}

func TestSamplerRecordsAndAdvances(t *testing.T) {
	s, err := NewSampler(10, 8) // 10 ns virtual interval
	if err != nil {
		t.Fatal(err)
	}
	if s.Due(9) {
		t.Fatal("due before the first boundary")
	}
	if !s.Due(10) {
		t.Fatal("not due at the boundary")
	}
	s.Record(10, mkStats(1))
	if s.Due(15) {
		t.Fatal("due again mid-interval")
	}
	s.Record(20, mkStats(2))
	got := s.Samples()
	if len(got) != 2 || got[0].Seq != 0 || got[1].Seq != 1 {
		t.Fatalf("samples: %+v", got)
	}
	// First sample has no baseline: delta counters zero, gauges copied.
	if got[0].Delta.FTL.HostWrittenBytes != 0 || got[0].Delta.Occupancy.BufferedSectors != 5 {
		t.Fatalf("first delta: %+v", got[0].Delta)
	}
	if got[1].Delta.FTL.HostWrittenBytes != 1000 {
		t.Fatalf("second delta: %+v", got[1].Delta)
	}
}

func TestSamplerSkipsMissedBoundaries(t *testing.T) {
	s, _ := NewSampler(10, 8)
	// One long media op can jump the clock over several boundaries; exactly
	// one sample records and the next boundary lands one interval ahead.
	s.Record(57, mkStats(1))
	if s.Due(60) {
		t.Fatal("back-filled boundary still due")
	}
	if !s.Due(67) {
		t.Fatal("next boundary not one interval after the jump")
	}
}

func TestSamplerRingOverwrite(t *testing.T) {
	s, _ := NewSampler(10, 4)
	for i := int64(1); i <= 10; i++ {
		s.Record(sim.Time(10*i), mkStats(i))
	}
	if s.Recorded() != 10 || s.Dropped() != 6 {
		t.Fatalf("recorded %d dropped %d", s.Recorded(), s.Dropped())
	}
	got := s.Samples()
	if len(got) != 4 || got[0].Seq != 6 || got[3].Seq != 9 {
		t.Fatalf("retained window wrong: %+v", got)
	}
	last, ok := s.Last()
	if !ok || last.Seq != 9 {
		t.Fatalf("last: %+v ok=%v", last, ok)
	}
}

func TestDiscontinuityResetsBaseline(t *testing.T) {
	s, _ := NewSampler(10, 8)
	s.Record(10, mkStats(5))
	// Crash: the recovered device restarts with smaller cumulative counters
	// than the dead one had. Without the baseline reset the next delta
	// would go negative.
	s.Discontinuity(14, mkStats(1))
	s.Record(24, mkStats(2))
	got := s.Samples()
	if len(got) != 3 {
		t.Fatalf("want 3 samples, got %d", len(got))
	}
	m := got[1]
	if !m.Discontinuity {
		t.Fatal("marker sample not flagged")
	}
	if m.Delta.FTL.HostWrittenBytes != 0 || m.Delta.Staging.Migrated != 0 {
		t.Fatalf("marker delta not zeroed: %+v", m.Delta)
	}
	if m.Delta.Occupancy != mkStats(1).Occupancy {
		t.Fatalf("marker occupancy not the recovered reading: %+v", m.Delta.Occupancy)
	}
	if d := got[2].Delta.FTL.HostWrittenBytes; d != 1000 {
		t.Fatalf("post-recovery delta = %d, want 1000 (baseline not reset)", d)
	}
}

func TestNilSamplerIsInert(t *testing.T) {
	var s *Sampler
	if s.Due(1e9) {
		t.Fatal("nil sampler due")
	}
	s.Record(1, Stats{})
	s.Discontinuity(1, Stats{})
	s.Prime(1, Stats{})
	s.Reset()
	if s.Samples() != nil || s.Recorded() != 0 || s.Dropped() != 0 || s.Interval() != 0 {
		t.Fatal("nil sampler not inert")
	}
	if _, ok := s.Last(); ok {
		t.Fatal("nil sampler has a last sample")
	}
}

func TestNewSamplerRejectsBadInterval(t *testing.T) {
	if _, err := NewSampler(0, 8); err == nil {
		t.Fatal("zero interval accepted")
	}
	if _, err := NewSampler(-5, 8); err == nil {
		t.Fatal("negative interval accepted")
	}
}

// newSmallFTL builds a small device and stages some data so Collect has
// non-trivial state to walk.
func newSmallFTL(t *testing.T) *ftl.FTL {
	t.Helper()
	f, err := config.Small().NewConZone()
	if err != nil {
		t.Fatal(err)
	}
	payload := make([][]byte, 4)
	for i := range payload {
		payload[i] = make([]byte, units.Sector)
	}
	at := sim.Time(0)
	for i := 0; i < 8; i++ {
		done, err := f.Write(at, int64(i*4), payload)
		if err != nil {
			t.Fatal(err)
		}
		at = done
	}
	return f
}

// TestCollectZeroAlloc pins the sampler's input: assembling the unified
// snapshot does not allocate.
func TestCollectZeroAlloc(t *testing.T) {
	f := newSmallFTL(t)
	var s Stats
	if allocs := testing.AllocsPerRun(200, func() { s = Collect(f) }); allocs != 0 {
		t.Fatalf("Collect allocates %.1f per op, want 0", allocs)
	}
	if s.FTL.HostWrittenBytes == 0 {
		t.Fatal("Collect saw no writes")
	}
}

// TestSamplerZeroAlloc pins steady-state sampling as the device runs it
// from every clock advance: Due, then Collect and Record when a boundary
// has been crossed, allocates nothing — so sampling cannot disturb the
// issue path's zero-allocation budget.
func TestSamplerZeroAlloc(t *testing.T) {
	f := newSmallFTL(t)
	smp, _ := NewSampler(1000, 64)
	smp.Prime(0, Collect(f))
	var now sim.Time
	crossed := 0
	allocs := testing.AllocsPerRun(200, func() {
		now += 600 // every other advance crosses a boundary
		if smp.Due(now) {
			smp.Record(now, Collect(f))
			crossed++
		}
	})
	if allocs != 0 {
		t.Fatalf("Due+Collect+Record allocates %.1f per run, want 0", allocs)
	}
	if crossed == 0 || smp.Recorded() != int64(crossed) {
		t.Fatalf("%d boundaries crossed, %d samples recorded", crossed, smp.Recorded())
	}
}

func TestCollectGathersOccupancy(t *testing.T) {
	f := newSmallFTL(t)
	s := Collect(f)
	if s.FTL.HostWrittenBytes == 0 {
		t.Fatal("no host writes collected")
	}
	o := s.Occupancy
	if o.BufferedSectors+o.SLCValidSectors == 0 {
		t.Fatalf("nothing buffered or staged after sub-PU writes: %+v", o)
	}
	if o.SLCUsableSuperblocks == 0 || o.FreeSuperblocks == 0 {
		t.Fatalf("pool gauges empty: %+v", o)
	}
	if o.OpenZones == 0 || o.ActiveZones < o.OpenZones {
		t.Fatalf("zone gauges wrong: %+v", o)
	}
}

func TestCollectZonesHeat(t *testing.T) {
	f := newSmallFTL(t)
	tab := CollectZones(f, 12345)
	if tab.At != 12345 {
		t.Fatalf("At = %d", tab.At)
	}
	if len(tab.Zones) != f.NumZones() || len(tab.SLC) != f.Staging().SuperblockCount() {
		t.Fatalf("table sizes: %d zones, %d slc", len(tab.Zones), len(tab.SLC))
	}
	z0 := tab.Zones[0]
	if z0.Written == 0 || z0.FillFrac <= 0 {
		t.Fatalf("zone 0 shows no fill after writes: %+v", z0)
	}
	if z0.ValidFrac < 0 || z0.ValidFrac > 1 {
		t.Fatalf("valid fraction out of range: %+v", z0)
	}
	for _, z := range tab.Zones[1:] {
		if z.Written != 0 {
			t.Fatalf("untouched zone %d shows writes", z.Zone)
		}
	}
	var staged int64
	for _, b := range tab.SLC {
		staged += b.Valid
	}
	if staged != f.Staging().TotalValid() {
		t.Fatalf("SLC heat rows sum to %d, region says %d", staged, f.Staging().TotalValid())
	}
}

func TestSnakeCase(t *testing.T) {
	for in, want := range map[string]string{
		"HostWrittenBytes": "host_written_bytes",
		"PUPrograms":       "pu_programs",
		"DirectPUs":        "direct_pus",
		"L2PLogFlushes":    "l2p_log_flushes",
		"PageProgramsSLC":  "page_programs_slc",
		"Erases":           "erases",
		"WAF":              "waf",
	} {
		if got := snakeCase(in); got != want {
			t.Errorf("snakeCase(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestPrometheusCoversEveryCounter: the reflective walk must declare one
// family per numeric field of the unified snapshot — the fault, bad-block
// and power-loss counters included.
func TestPrometheusCoversEveryCounter(t *testing.T) {
	var buf bytes.Buffer
	if err := obs.WriteExposition(&buf, mkStats(2).Expose); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"conzone_ftl_host_written_bytes_total 2000",
		"conzone_nand_bytes_programmed_total 3000",
		"conzone_fault_read_retries_total 4",
		"conzone_ftl_retired_superblocks_total 2",
		"conzone_power_cuts_total 2",
		"conzone_recoveries_total 2",
		"conzone_occupancy_buffered_sectors 10",
		"conzone_occupancy_read_only 0",
		"conzone_waf ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in exposition", want)
		}
	}
	numeric := func(k reflect.Kind) bool {
		return k == reflect.Int64 || k == reflect.Int || k == reflect.Float64 || k == reflect.Bool
	}
	fields := 0
	st := reflect.TypeOf(Stats{})
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i).Type
		if f.Kind() != reflect.Struct {
			if numeric(f.Kind()) {
				fields++
			}
			continue
		}
		for j := 0; j < f.NumField(); j++ {
			if numeric(f.Field(j).Type.Kind()) {
				fields++
			}
		}
	}
	if families := strings.Count(out, "# TYPE "); families != fields {
		t.Fatalf("%d families for %d numeric Stats fields", families, fields)
	}
}

func TestSeriesExportRoundTrip(t *testing.T) {
	s, _ := NewSampler(10, 8)
	s.Record(10, mkStats(1))
	s.Discontinuity(14, mkStats(1))
	s.Record(24, mkStats(3))
	samples := s.Samples()

	var jl bytes.Buffer
	if err := WriteSeriesJSONL(&jl, samples); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(jl.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("JSONL lines = %d", len(lines))
	}
	var back Sample
	if err := json.Unmarshal([]byte(lines[1]), &back); err != nil {
		t.Fatal(err)
	}
	if !back.Discontinuity || back.At != 14 {
		t.Fatalf("JSONL round trip lost the marker: %+v", back)
	}

	var csv bytes.Buffer
	if err := WriteSeriesCSV(&csv, samples); err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(rows) != 4 {
		t.Fatalf("CSV rows = %d", len(rows))
	}
	nCols := len(strings.Split(rows[0], ","))
	if nCols != len(seriesCSVHeader) {
		t.Fatalf("header width %d", nCols)
	}
	for i, r := range rows {
		if got := len(strings.Split(r, ",")); got != nCols {
			t.Fatalf("row %d has %d columns, header has %d", i, got, nCols)
		}
	}
	if !strings.HasPrefix(rows[2], "1,") || !strings.Contains(rows[2], ",1,") {
		t.Fatalf("marker row lost its discontinuity flag: %q", rows[2])
	}
}

func TestZoneTableWriters(t *testing.T) {
	f := newSmallFTL(t)
	tab := CollectZones(f, 1e6)

	js, err := json.Marshal(tab)
	if err != nil {
		t.Fatal(err)
	}
	var back ZoneTable
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Zones) != len(tab.Zones) || len(back.SLC) != len(tab.SLC) {
		t.Fatal("JSON round trip lost rows")
	}

	var prom bytes.Buffer
	if err := obs.WriteExposition(&prom, tab.Expose); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "conzone_zone_fill_frac{zone=\"0\"") {
		t.Fatal("per-zone gauge missing")
	}

	var heat bytes.Buffer
	if err := tab.WriteHeatmap(&heat); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(heat.String(), "zone fill") || !strings.Contains(heat.String(), "slc staging") {
		t.Fatalf("heatmap sections missing:\n%s", heat.String())
	}
}
