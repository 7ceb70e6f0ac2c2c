package conzone

// End-to-end tests of the lifecycle telemetry subsystem: premature-flush
// attribution on the paper's buffer-conflict scenario, map-fetch span
// accounting across the three L2P search strategies, interval deltas, and
// the exporter acceptance criteria (valid Prometheus text, JSON and Chrome
// Trace output from a paper-config run).

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"github.com/conzone/conzone/internal/obs"
	"github.com/conzone/conzone/internal/sim"
)

// conflictRounds drives the Fig. 6(b) pathology: alternating 48 KiB writes
// to two zones. With the paper's two shared buffers, zones 1 and 3 collide
// (both map to buffer 1) while zones 1 and 2 do not.
func conflictRounds(t *testing.T, dev *Device, zoneA, zoneB int, rounds int) {
	t.Helper()
	conflictRoundsFrom(t, dev, zoneA, zoneB, 0, rounds)
}

// conflictRoundsFrom continues the alternating pattern at round `from`, so
// a test can split the workload into intervals without rewinding the zones'
// write pointers.
func conflictRoundsFrom(t *testing.T, dev *Device, zoneA, zoneB, from, rounds int) {
	t.Helper()
	const ioBytes = 48 << 10
	buf := make([]byte, ioBytes)
	for i := range buf {
		buf[i] = byte(i)
	}
	zb := dev.ZoneBytes()
	for r := from; r < from+rounds; r++ {
		off := int64(r) * ioBytes
		if err := dev.Write(int64(zoneA)*zb+off, buf); err != nil {
			t.Fatalf("round %d zone %d: %v", r, zoneA, err)
		}
		if err := dev.Write(int64(zoneB)*zb+off, buf); err != nil {
			t.Fatalf("round %d zone %d: %v", r, zoneB, err)
		}
	}
}

func stageEvents(tel Telemetry, stage obs.Stage) []LifecycleEvent {
	var out []LifecycleEvent
	for _, e := range tel.Events {
		if e.Stage == stage {
			out = append(out, e)
		}
	}
	return out
}

func TestPrematureFlushEventsExactlyOnConflicts(t *testing.T) {
	t.Run("conflicting zones", func(t *testing.T) {
		dev, err := Open(PaperConfig())
		if err != nil {
			t.Fatal(err)
		}
		dev.EnableObservation(1 << 16)
		conflictRounds(t, dev, 1, 3, 24)

		tel := dev.Telemetry()
		evs := stageEvents(tel, obs.StagePrematureFlush)
		st := dev.Stats()
		if st.FTL.PrematureFlushes == 0 {
			t.Fatal("conflict workload caused no premature flushes")
		}
		// Exactness: one lifecycle event per counted premature flush.
		if int64(len(evs)) != st.FTL.PrematureFlushes {
			t.Fatalf("premature_flush events = %d, counter = %d",
				len(evs), st.FTL.PrematureFlushes)
		}
		if got := tel.Stage("premature_flush").Count; got != st.FTL.PrematureFlushes {
			t.Fatalf("aggregated count = %d, counter = %d", got, st.FTL.PrematureFlushes)
		}
		for _, e := range evs {
			if e.Cause != obs.CauseZoneConflict {
				t.Fatalf("premature flush with cause %q, want zone_conflict", e.Cause)
			}
			if e.Zone != 1 && e.Zone != 3 {
				t.Fatalf("premature flush of zone %d, want 1 or 3", e.Zone)
			}
			if e.End <= e.Begin {
				t.Fatalf("span has no duration: %+v", e)
			}
		}
		// And the cause breakdown agrees.
		if got := tel.Stage("premature_flush").ByCause["zone_conflict"]; got != int64(len(evs)) {
			t.Fatalf("by_cause[zone_conflict] = %d, want %d", got, len(evs))
		}
	})

	t.Run("non-conflicting zones", func(t *testing.T) {
		dev, err := Open(PaperConfig())
		if err != nil {
			t.Fatal(err)
		}
		dev.EnableObservation(1 << 16)
		conflictRounds(t, dev, 1, 2, 24) // buffers 1 and 0: no conflict

		tel := dev.Telemetry()
		if evs := stageEvents(tel, obs.StagePrematureFlush); len(evs) != 0 {
			t.Fatalf("clean workload produced %d premature flush events: %+v", len(evs), evs[0])
		}
		if n := dev.Stats().FTL.PrematureFlushes; n != 0 {
			t.Fatalf("clean workload counter = %d, want 0", n)
		}
	})
}

// TestFetchStrategySpanCounts checks the map-fetch accounting identity for
// every search strategy — event count == Stats.FTL.MapFetches and the sum
// of per-event flash reads == Stats.FTL.MapFetchReads — and the per-
// strategy fetch-cost bounds of §III-C.
func TestFetchStrategySpanCounts(t *testing.T) {
	cases := []struct {
		name     string
		strategy Strategy
		cause    obs.Cause
		maxReads int64
	}{
		{"bitmap", Bitmap, obs.CauseBitmap, 1},
		{"multiple", Multiple, obs.CauseMultiple, 3},
		{"pinned", Pinned, obs.CausePinned, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := PaperConfig()
			cfg.FTL.Search = tc.strategy
			dev, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			dev.EnableObservation(1 << 16)

			// Conflicting writes scatter page-granularity mappings through
			// SLC staging; cold random reads then miss the tiny L2P cache.
			conflictRounds(t, dev, 1, 3, 24)
			if err := dev.Flush(); err != nil {
				t.Fatal(err)
			}
			zb := dev.ZoneBytes()
			written := int64(24) * (48 << 10) / SectorSize
			rng := sim.NewRand(0)
			for i := 0; i < 200; i++ {
				sector := int64(rng.Uint64()>>1) % written
				if _, err := dev.Read(zb+sector*SectorSize, int(SectorSize)); err != nil {
					t.Fatal(err)
				}
			}

			tel := dev.Telemetry()
			evs := stageEvents(tel, obs.StageMapFetch)
			st := dev.Stats()
			if st.FTL.MapFetches == 0 {
				t.Fatal("workload caused no map fetches; test is vacuous")
			}
			if int64(len(evs)) != st.FTL.MapFetches {
				t.Fatalf("map_fetch events = %d, MapFetches = %d", len(evs), st.FTL.MapFetches)
			}
			var sum int64
			for _, e := range evs {
				if e.Cause != tc.cause {
					t.Fatalf("map fetch cause = %q, want %q", e.Cause, tc.cause)
				}
				if e.N < 1 || e.N > tc.maxReads {
					t.Fatalf("%s fetch needed %d flash reads, want 1..%d", tc.name, e.N, tc.maxReads)
				}
				sum += e.N
			}
			if sum != st.FTL.MapFetchReads {
				t.Fatalf("sum of per-event reads = %d, MapFetchReads = %d", sum, st.FTL.MapFetchReads)
			}
		})
	}
}

func TestStatsDelta(t *testing.T) {
	dev, err := Open(PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	conflictRounds(t, dev, 1, 3, 8)
	prev := dev.Stats()
	conflictRoundsFrom(t, dev, 1, 3, 8, 8)
	cur := dev.Stats()

	d := cur.Delta(prev)
	if d.FTL.HostWrittenBytes != cur.FTL.HostWrittenBytes-prev.FTL.HostWrittenBytes {
		t.Fatalf("FTL delta wrong: %d", d.FTL.HostWrittenBytes)
	}
	if d.FTL.PrematureFlushes != cur.FTL.PrematureFlushes-prev.FTL.PrematureFlushes {
		t.Fatalf("premature delta wrong: %d", d.FTL.PrematureFlushes)
	}
	if d.NAND.BytesProgrammed != cur.NAND.BytesProgrammed-prev.NAND.BytesProgrammed {
		t.Fatalf("NAND delta wrong: %d", d.NAND.BytesProgrammed)
	}
	if d.Buffers.Evictions != cur.Buffers.Evictions-prev.Buffers.Evictions {
		t.Fatalf("buffer delta wrong: %d", d.Buffers.Evictions)
	}
	// Interval WAF is recomputed from the interval's bytes, not copied.
	wantWAF := float64(d.NAND.BytesProgrammed) / float64(d.FTL.HostWrittenBytes)
	if d.WAF != wantWAF {
		t.Fatalf("interval WAF = %v, want %v", d.WAF, wantWAF)
	}
	// Delta against a zero snapshot reproduces the cumulative stats.
	if z := cur.Delta(Stats{}); z.FTL != cur.FTL || z.NAND != cur.NAND {
		t.Fatal("delta from zero snapshot does not reproduce totals")
	}
}

// TestTelemetryExportEndToEnd is the PR's acceptance check: a paper-config
// run with observation on emits parsable Prometheus text, a JSON metrics
// snapshot, and a Chrome Trace Event file.
func TestTelemetryExportEndToEnd(t *testing.T) {
	dev, err := Open(PaperConfig())
	if err != nil {
		t.Fatal(err)
	}

	// Telemetry before enabling is a zero snapshot, not a crash.
	if tel := dev.Telemetry(); len(tel.Stages) != 0 || tel.Recorded != 0 {
		t.Fatalf("disabled telemetry = %+v, want zero", tel)
	}

	dev.EnableObservation(0)
	conflictRounds(t, dev, 1, 3, 16)
	if err := dev.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Read(dev.ZoneBytes(), int(64*SectorSize)); err != nil {
		t.Fatal(err)
	}
	if err := dev.ResetZone(3); err != nil {
		t.Fatal(err)
	}

	tel := dev.Telemetry()
	if tel.Recorded == 0 || len(tel.Stages) == 0 {
		t.Fatal("no telemetry recorded")
	}
	for _, stage := range []string{"host_write", "premature_flush", "slc_stage", "zone_reset", "nand_program"} {
		if tel.Stage(stage).Count == 0 {
			t.Fatalf("stage %q absent from paper-config run", stage)
		}
	}
	if len(tel.Resources) == 0 {
		t.Fatal("no resource usage captured")
	}

	var prom bytes.Buffer
	if err := obs.WriteExposition(&prom, tel.Expose); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"conzone_stage_spans_total{stage=\"premature_flush\"}",
		"conzone_stage_cause_total{stage=\"premature_flush\",cause=\"zone_conflict\"}",
		"conzone_stage_latency_seconds{stage=\"host_write\",quantile=\"0.99\"}",
		"conzone_resource_utilization",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Fatalf("Prometheus output missing %q", want)
		}
	}

	var js bytes.Buffer
	if err := tel.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(js.Bytes(), &decoded); err != nil {
		t.Fatalf("JSON export does not parse: %v", err)
	}
	if _, ok := decoded["stages"]; !ok {
		t.Fatal("JSON export missing stages")
	}

	var chrome bytes.Buffer
	if err := tel.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome trace does not parse: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("Chrome trace has no events")
	}
	for _, e := range doc.TraceEvents {
		if e.Phase != "M" && e.Phase != "X" {
			t.Fatalf("unexpected trace phase %q", e.Phase)
		}
	}

	if err := dev.CheckInvariants(); err != nil {
		t.Fatalf("device inconsistent after observed run: %v", err)
	}
}

// TestTelemetryCoversSubmittedCommands: a command submitted but not yet
// polled is dispatched by every snapshot getter before it looks, Telemetry
// included — so the spans it reports are those of the commands Stats, taken
// at the same moment, counts.
func TestTelemetryCoversSubmittedCommands(t *testing.T) {
	dev, err := Open(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	dev.EnableObservation(0)
	const writes = 3
	for i := 0; i < writes; i++ {
		req := HostRequest{Op: OpWrite, LBA: int64(i) * 8, Payloads: make([][]byte, 8)}
		if _, err := dev.Submit(0, req); err != nil {
			t.Fatal(err)
		}
	}
	tel := dev.Telemetry()
	st := dev.Stats()
	if st.FTL.HostWrittenBytes != writes*8*SectorSize {
		t.Fatalf("Stats counts %d host bytes, want the %d submitted writes' %d", st.FTL.HostWrittenBytes, writes, writes*8*SectorSize)
	}
	if got := tel.Stage("host_write").Count; got != writes {
		t.Errorf("Telemetry holds %d host_write spans with %d writes submitted and counted by Stats", got, writes)
	}
	if got := tel.Stage("host_queue").Count; got != writes {
		t.Errorf("Telemetry holds %d host_queue spans, want %d", got, writes)
	}
}

// TestReadoutsCoverSubmittedCommands: PowerLost, Series and SamplesRecorded
// dispatch submitted commands before they look, as Stats does, so what they
// report does not depend on whether an unrelated readout ran first.
func TestReadoutsCoverSubmittedCommands(t *testing.T) {
	submit := func(dev *Device, writes int) {
		t.Helper()
		for i := 0; i < writes; i++ {
			req := HostRequest{Op: OpWrite, LBA: int64(i) * 8, Payloads: make([][]byte, 8)}
			if _, err := dev.Submit(0, req); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := dev.Submit(0, HostRequest{Op: OpFlush, Zone: 0}); err != nil {
			t.Fatal(err)
		}
	}

	// A cut armed at the first instant tears the submitted flush's program.
	dev, err := Open(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	dev.ArmPowerCut(1)
	submit(dev, 1)
	lost := dev.PowerLost()
	dev.Stats()
	if !lost || !dev.PowerLost() {
		t.Errorf("PowerLost = %v before a Stats call and %v after, want true both times", lost, dev.PowerLost())
	}

	// The submitted commands cross a sample boundary of the virtual clock.
	dev, err = Open(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.EnableSampling(10*time.Microsecond, 0); err != nil {
		t.Fatal(err)
	}
	submit(dev, 4)
	series := len(dev.Series())
	recorded, _ := dev.SamplesRecorded()
	dev.Stats()
	if after := len(dev.Series()); series == 0 || series != after || recorded != int64(after) {
		t.Errorf("Series holds %d samples (SamplesRecorded %d) before a Stats call and %d after, want the same non-zero count", series, recorded, after)
	}
}
