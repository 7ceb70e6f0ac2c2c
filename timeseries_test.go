package conzone

// End-to-end tests of the virtual-time telemetry layer: the sampler riding
// the device clock, crash-recovery discontinuity markers, unified-stats
// coverage of the fault/power counters, and the live scrape endpoint
// (the /metrics bytes against a recorded body, JSON payload round trips,
// pprof reachability).

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/conzone/conzone/internal/fault"
)

func TestSamplingSeriesOverVirtualTime(t *testing.T) {
	dev, err := Open(PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.EnableSampling(2*time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	conflictRounds(t, dev, 1, 3, 96)
	if err := dev.Flush(); err != nil {
		t.Fatal(err)
	}
	series := dev.Series()
	if len(series) < 3 {
		t.Fatalf("only %d samples over a %v workload", len(series), dev.Now())
	}
	recorded, dropped := dev.SamplesRecorded()
	if recorded != int64(len(series)) || dropped != 0 {
		t.Fatalf("recorded %d dropped %d retained %d", recorded, dropped, len(series))
	}
	var prevAt Time
	var sumWritten int64
	for i, s := range series {
		if s.At <= prevAt {
			t.Fatalf("sample %d At %d not after %d", i, s.At, prevAt)
		}
		prevAt = s.At
		if s.Discontinuity {
			t.Fatalf("sample %d spuriously marked discontinuous", i)
		}
		if s.Delta.FTL.HostWrittenBytes < 0 || s.Delta.NAND.BytesProgrammed < 0 {
			t.Fatalf("negative delta at sample %d: %+v", i, s.Delta)
		}
		sumWritten += s.Delta.FTL.HostWrittenBytes
	}
	// The delta columns must tile the cumulative counter exactly.
	last := series[len(series)-1]
	if sumWritten != last.Stats.FTL.HostWrittenBytes {
		t.Fatalf("delta sum %d != cumulative %d", sumWritten, last.Stats.FTL.HostWrittenBytes)
	}
	if last.Stats.WAF <= 0 {
		t.Fatal("no WAF in the final sample")
	}
}

// TestRemountEmitsDiscontinuity is the satellite regression test: a crash
// and Remount must produce exactly one marker sample with a zeroed delta
// and reset occupancy gauges, and the samples after it must never subtract
// across the cut.
func TestRemountEmitsDiscontinuity(t *testing.T) {
	dev, err := Open(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.EnableSampling(500*time.Microsecond, 0); err != nil {
		t.Fatal(err)
	}
	conflictRounds(t, dev, 1, 3, 12)
	pre := dev.Stats()
	if pre.Occupancy.BufferedSectors+pre.Occupancy.SLCValidSectors == 0 {
		t.Fatal("workload left nothing buffered or staged; the occupancy-reset assertion below would be vacuous")
	}

	// Ensure a buffer holds data whose flush must touch media, then arm
	// the cut so that flush is torn.
	if err := dev.Write(5*dev.ZoneBytes(), make([]byte, 6*SectorSize)); err != nil {
		t.Fatal(err)
	}
	dev.ArmPowerCut(Time(dev.Now()) + Time(time.Nanosecond))
	err = dev.Flush()
	if err == nil || !errors.Is(err, ErrPowerLoss) {
		t.Fatalf("torn flush: %v", err)
	}
	if err := dev.Remount(); err != nil {
		t.Fatal(err)
	}

	series := dev.Series()
	if len(series) == 0 {
		t.Fatal("no samples")
	}
	var marks []Sample
	var markIdx int
	for i, s := range series {
		if s.Discontinuity {
			marks = append(marks, s)
			markIdx = i
		}
	}
	if len(marks) != 1 {
		t.Fatalf("want exactly 1 discontinuity marker, got %d", len(marks))
	}
	m := marks[0]
	if markIdx != len(series)-1 {
		t.Fatalf("marker not the latest sample (index %d of %d)", markIdx, len(series))
	}
	if m.Delta.FTL.HostWrittenBytes != 0 || m.Delta.NAND.BytesProgrammed != 0 || m.Delta.Staging.Staged != 0 {
		t.Fatalf("marker delta not zeroed: %+v", m.Delta)
	}
	if m.Stats.PowerCuts != 1 || m.Stats.Recoveries != 1 {
		t.Fatalf("marker power counters: cuts %d recoveries %d", m.Stats.PowerCuts, m.Stats.Recoveries)
	}
	// Volatile occupancy died with the power: the recovered gauges must
	// not inherit pre-crash fill.
	if m.Stats.Occupancy.BufferedSectors != 0 {
		t.Fatalf("recovered sample still shows %d buffered sectors", m.Stats.Occupancy.BufferedSectors)
	}

	// Post-recovery samples subtract against the recovered baseline only.
	conflictRoundsFrom(t, dev, 5, 7, 0, 24)
	for _, s := range dev.Series()[markIdx+1:] {
		if s.Discontinuity {
			t.Fatal("second marker without a second crash")
		}
		if s.Delta.FTL.HostWrittenBytes < 0 || s.Delta.NAND.BytesProgrammed < 0 ||
			s.Delta.Staging.Staged < 0 || s.Delta.Cache.Hits < 0 {
			t.Fatalf("negative post-recovery delta: %+v", s.Delta)
		}
	}
}

// TestStatsCoversFaultAndPowerCounters pins the unified-stats drift fix:
// fault-injector totals, the spare-pool gauge and power-loss counters all
// surface in one Stats snapshot and survive Delta.
func TestStatsCoversFaultAndPowerCounters(t *testing.T) {
	cfg := SmallConfig()
	// Sub-PU writes land in SLC staging, so the reads below sense SLC
	// media: fail those (TLC too, in case a combine landed the data there).
	cfg.FTL.Faults = &fault.Config{
		Seed: 11,
		SLC:  fault.Probabilities{ReadFail: 1},
		TLC:  fault.Probabilities{ReadFail: 1},
	}
	dev, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 8*SectorSize)
	if err := dev.Write(0, data); err != nil {
		t.Fatal(err)
	}
	if err := dev.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Read(0, len(data)); err != nil && !errors.Is(err, ErrUncorrectable) {
		t.Fatal(err)
	}
	s := dev.Stats()
	if s.Fault.ReadRetries == 0 {
		t.Fatalf("fault stats absent from the unified snapshot: %+v", s.Fault)
	}
	if s.Occupancy.SpareRemaining != int64(dev.FTL().SpareRemaining()) {
		t.Fatal("spare pool gauge out of sync")
	}
	d := dev.Stats().Delta(s)
	if d.Fault.ReadRetries < 0 {
		t.Fatalf("fault delta negative: %+v", d.Fault)
	}
}

// TestScrapeEndpointRoundTrip serves every endpoint of an observed device
// that has gone quiet: /metrics is byte-identical to the body recorded in
// testdata/scrape_metrics.golden (the exposition's bytes, a single
// unlabeled snapshot's included, do not move with a refactor of its
// writer), and the JSON payloads round-trip. The grammar of the /metrics
// body is TestExpositionGrammar's.
func TestScrapeEndpointRoundTrip(t *testing.T) {
	dev := scrapedDevice(t)
	srv := httptest.NewServer(dev.ObservabilityHandler())
	defer srv.Close()
	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ctype := get("/metrics")
	if !strings.Contains(ctype, "version=0.0.4") {
		t.Fatalf("exposition content type: %q", ctype)
	}
	golden, err := os.ReadFile("testdata/scrape_metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if body != string(golden) {
		got, want := strings.Split(body, "\n"), strings.Split(string(golden), "\n")
		for i := 0; i < len(got) || i < len(want); i++ {
			if i >= len(got) || i >= len(want) || got[i] != want[i] {
				g, w := "<end>", "<end>"
				if i < len(got) {
					g = got[i]
				}
				if i < len(want) {
					w = want[i]
				}
				t.Fatalf("/metrics differs from testdata/scrape_metrics.golden at line %d:\n got %q\nwant %q", i+1, g, w)
			}
		}
	}

	// /timeseries.json mirrors Series().
	body, ctype = get("/timeseries.json")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("timeseries content type %q", ctype)
	}
	var ts struct {
		IntervalNs int64    `json:"interval_ns"`
		Samples    []Sample `json:"samples"`
	}
	if err := json.Unmarshal([]byte(body), &ts); err != nil {
		t.Fatal(err)
	}
	if ts.IntervalNs != int64(2*time.Millisecond) {
		t.Fatalf("interval %d", ts.IntervalNs)
	}
	if len(ts.Samples) != len(dev.Series()) || len(ts.Samples) == 0 {
		t.Fatalf("endpoint returned %d samples, device holds %d", len(ts.Samples), len(dev.Series()))
	}

	// /zones.json decodes into the same table Heatmap returns.
	body, _ = get("/zones.json")
	var tab ZoneTable
	if err := json.Unmarshal([]byte(body), &tab); err != nil {
		t.Fatal(err)
	}
	if len(tab.Zones) != dev.NumZones() {
		t.Fatalf("zones.json has %d zones, device %d", len(tab.Zones), dev.NumZones())
	}
	if z := tab.Zones[1]; z.FillFrac <= 0 {
		t.Fatalf("written zone shows no fill: %+v", z)
	}

	// /zones.txt renders, /debug/pprof/ responds, and the index lists all.
	if body, _ = get("/zones.txt"); !strings.Contains(body, "zone fill") {
		t.Fatal("zones.txt missing heatmap")
	}
	if body, _ = get("/debug/pprof/"); !strings.Contains(body, "profile") {
		t.Fatal("pprof index empty")
	}
	if body, _ = get("/"); !strings.Contains(body, "/metrics") {
		t.Fatal("index page missing endpoint list")
	}
}

// TestSamplingStableUnderRing: the ring bounds memory: a long workload
// with a tiny ring keeps only the freshest window.
func TestSamplingRingBounds(t *testing.T) {
	dev, err := Open(PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.EnableSampling(500*time.Microsecond, 16); err != nil {
		t.Fatal(err)
	}
	conflictRounds(t, dev, 1, 3, 96)
	series := dev.Series()
	recorded, dropped := dev.SamplesRecorded()
	if len(series) != 16 {
		t.Fatalf("retained %d, ring is 16", len(series))
	}
	if dropped != recorded-16 {
		t.Fatalf("recorded %d dropped %d", recorded, dropped)
	}
	if series[0].Seq != uint64(recorded-16) {
		t.Fatalf("oldest retained seq %d", series[0].Seq)
	}
}

// ExampleDevice_EnableSampling shows the paper-style use: sample WAF over
// virtual time under a sustained write and read the curve back.
func ExampleDevice_EnableSampling() {
	dev, err := Open(SmallConfig())
	if err != nil {
		panic(err)
	}
	if err := dev.EnableSampling(time.Millisecond, 0); err != nil {
		panic(err)
	}
	buf := make([]byte, 48<<10)
	zb := dev.ZoneBytes()
	for i := 0; i < 12; i++ {
		off := int64(i) * int64(len(buf))
		if err := dev.Write(1*zb+off, buf); err != nil {
			panic(err)
		}
		if err := dev.Write(3*zb+off, buf); err != nil {
			panic(err)
		}
	}
	if err := dev.Flush(); err != nil {
		panic(err)
	}
	series := dev.Series()
	fmt.Println("sampled:", len(series) > 0)
	last := series[len(series)-1]
	fmt.Println("cumulative WAF at least 1:", last.Stats.WAF >= 1)
	// Output:
	// sampled: true
	// cumulative WAF at least 1: true
}
