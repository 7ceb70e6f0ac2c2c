package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"github.com/conzone/conzone/internal/sim"
)

func ev(stage Stage, cause Cause, begin, dur time.Duration) Event {
	b := sim.Time(begin)
	return Event{Stage: stage, Cause: cause, Begin: b, End: b.Add(dur), Zone: 1, Actor: -1, LBA: 100, N: 4}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	r.Record(ev(StageHostWrite, CauseNone, 0, time.Microsecond))
	r.Reset()
	if got := r.Recorded(); got != 0 {
		t.Fatalf("Recorded() = %d, want 0", got)
	}
	if got := r.Dropped(); got != 0 {
		t.Fatalf("Dropped() = %d, want 0", got)
	}
	if got := r.StageCount(StageHostWrite); got != 0 {
		t.Fatalf("StageCount = %d, want 0", got)
	}
	if got := r.CauseCount(StagePrematureFlush, CauseZoneConflict); got != 0 {
		t.Fatalf("CauseCount = %d, want 0", got)
	}
	if s := r.StageLatency(StageHostWrite); s.Count != 0 {
		t.Fatalf("StageLatency count = %d, want 0", s.Count)
	}
	if evs := r.Events(); evs != nil {
		t.Fatalf("Events() = %v, want nil", evs)
	}
	if tail := FormatTail(r, 8); tail != "" {
		t.Fatalf("FormatTail = %q, want empty", tail)
	}
	snap := r.Snapshot()
	if len(snap.Stages) != 0 || snap.Recorded != 0 {
		t.Fatalf("nil Snapshot = %+v, want zero", snap)
	}
}

// TestRecordDisabledNoAllocs is the contract the hot paths rely on: calling
// a nil recorder must not allocate, so instrumentation can stay
// unconditional in the I/O path.
func TestRecordDisabledNoAllocs(t *testing.T) {
	var r *Recorder
	e := ev(StageNANDProgram, CauseNone, 0, 200*time.Microsecond)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(e)
	})
	if allocs != 0 {
		t.Fatalf("disabled Record allocates %v per op, want 0", allocs)
	}
}

// TestRecordEnabledNoAllocs: the enabled steady state must not allocate
// either — events land in preallocated ring slots and fixed-size arrays.
func TestRecordEnabledNoAllocs(t *testing.T) {
	r := NewRecorder(64)
	// Warm the per-stage histogram so lazy init is done.
	r.Record(ev(StageNANDProgram, CauseNone, 0, 200*time.Microsecond))
	e := ev(StageNANDProgram, CauseNone, 0, 200*time.Microsecond)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(e)
	})
	if allocs != 0 {
		t.Fatalf("enabled Record allocates %v per op, want 0", allocs)
	}
}

// TestHostQueueSpanNoAllocs pins the same contract for the host-queue
// span specifically: internal/host records one event per dispatched
// command, so it must stay free on both the nil and enabled paths.
func TestHostQueueSpanNoAllocs(t *testing.T) {
	e := ev(StageHostQueue, CauseNone, 0, 30*time.Microsecond)
	var nilRec *Recorder
	if allocs := testing.AllocsPerRun(1000, func() {
		nilRec.Record(e)
	}); allocs != 0 {
		t.Fatalf("disabled host-queue Record allocates %v per op, want 0", allocs)
	}
	r := NewRecorder(64)
	r.Record(e) // warm lazy histogram init
	if allocs := testing.AllocsPerRun(1000, func() {
		r.Record(e)
	}); allocs != 0 {
		t.Fatalf("enabled host-queue Record allocates %v per op, want 0", allocs)
	}
	if got := r.StageCount(StageHostQueue); got == 0 {
		t.Fatal("host-queue events not counted")
	}
	found := false
	for _, ss := range r.Snapshot().Stages {
		if ss.Stage == StageHostQueue.String() {
			found = true
		}
	}
	if !found {
		t.Fatal("host-queue stage missing from snapshot")
	}
}

func TestRecorderAggregates(t *testing.T) {
	r := NewRecorder(16)
	r.Record(ev(StagePrematureFlush, CauseZoneConflict, 0, time.Millisecond))
	r.Record(ev(StagePrematureFlush, CauseZoneConflict, time.Millisecond, 3*time.Millisecond))
	r.Record(ev(StageMapFetch, CauseBitmap, 0, 80*time.Microsecond))

	if got := r.Recorded(); got != 3 {
		t.Fatalf("Recorded = %d, want 3", got)
	}
	if got := r.StageCount(StagePrematureFlush); got != 2 {
		t.Fatalf("StageCount(premature_flush) = %d, want 2", got)
	}
	if got := r.CauseCount(StagePrematureFlush, CauseZoneConflict); got != 2 {
		t.Fatalf("CauseCount = %d, want 2", got)
	}
	if got := r.CauseCount(StageMapFetch, CauseBitmap); got != 1 {
		t.Fatalf("CauseCount(map_fetch,bitmap) = %d, want 1", got)
	}
	l := r.StageLatency(StagePrematureFlush)
	if l.Count != 2 || l.Min != time.Millisecond || l.Max != 3*time.Millisecond {
		t.Fatalf("latency = %+v, want count=2 min=1ms max=3ms", l)
	}

	r.Reset()
	if r.Recorded() != 0 || r.StageCount(StagePrematureFlush) != 0 {
		t.Fatal("Reset did not clear aggregates")
	}
	if r.StageLatency(StagePrematureFlush).Count != 0 {
		t.Fatal("Reset did not clear histograms")
	}
}

func TestRecorderClampsOutOfRange(t *testing.T) {
	r := NewRecorder(8)
	r.Record(Event{Stage: Stage(250), Cause: Cause(250)})
	if got := r.StageCount(NumStages - 1); got != 1 {
		t.Fatalf("out-of-range stage not clamped: count = %d", got)
	}
	if got := r.CauseCount(NumStages-1, NumCauses-1); got != 1 {
		t.Fatalf("out-of-range cause not clamped: count = %d", got)
	}
}

func TestRingTailAndDropped(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.Record(ev(StageNANDRead, CauseNone, time.Duration(i)*time.Microsecond, time.Microsecond))
	}
	if got := r.Recorded(); got != 10 {
		t.Fatalf("Recorded = %d, want 10", got)
	}
	if got := r.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("Events len = %d, want ring size 4", len(evs))
	}
	for i, e := range evs {
		if want := uint64(6 + i); e.Seq != want {
			t.Fatalf("Events[%d].Seq = %d, want %d (oldest first)", i, e.Seq, want)
		}
	}
	if tail := r.Tail(2); len(tail) != 2 || tail[0].Seq != 8 || tail[1].Seq != 9 {
		t.Fatalf("Tail(2) = %+v, want seqs 8,9", tail)
	}
	if got := r.Tail(0); got != nil {
		t.Fatalf("Tail(0) = %v, want nil", got)
	}

	text := FormatTail(r, 3)
	if !strings.Contains(text, "#7") || !strings.Contains(text, "nand_read") {
		t.Fatalf("FormatTail missing expected content:\n%s", text)
	}
	if n := strings.Count(text, "\n"); n != 3 {
		t.Fatalf("FormatTail lines = %d, want 3", n)
	}
}

func TestNewRecorderDefaultSize(t *testing.T) {
	r := NewRecorder(0)
	if len(r.ring) != DefaultRingSize {
		t.Fatalf("ring size = %d, want DefaultRingSize %d", len(r.ring), DefaultRingSize)
	}
}

func TestStageAndCauseNames(t *testing.T) {
	for s := Stage(0); s < NumStages; s++ {
		name := s.String()
		if name == "" || strings.Contains(name, " ") {
			t.Fatalf("stage %d has bad name %q", s, name)
		}
	}
	if got := Stage(200).String(); got != "stage_200" {
		t.Fatalf("unknown stage name = %q", got)
	}
	if got := CauseNone.String(); got != "" {
		t.Fatalf("CauseNone name = %q, want empty", got)
	}
	if got := CauseZoneConflict.String(); got != "zone_conflict" {
		t.Fatalf("CauseZoneConflict = %q", got)
	}
	if got := Cause(99).String(); got != "cause_99" {
		t.Fatalf("unknown cause name = %q", got)
	}
}

func TestEventString(t *testing.T) {
	e := ev(StagePrematureFlush, CauseZoneConflict, time.Millisecond, 2*time.Millisecond)
	s := e.String()
	for _, want := range []string{"premature_flush", "cause=zone_conflict", "zone=1", "lba=100", "n=4"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Event.String() = %q, missing %q", s, want)
		}
	}
}

func testTelemetry() Telemetry {
	r := NewRecorder(16)
	r.Record(ev(StagePrematureFlush, CauseZoneConflict, 0, time.Millisecond))
	r.Record(ev(StageMapFetch, CauseBitmap, time.Millisecond, 50*time.Microsecond))
	r.Record(ev(StageNANDProgram, CauseNone, 2*time.Millisecond, 200*time.Microsecond))
	t := r.Snapshot()
	t.Events = r.Events()
	t.Resources = []sim.ResourceUsage{{Name: "chan0", BusyTime: 3 * time.Millisecond, Ops: 7, Utilization: 0.5}}
	return t
}

func TestSnapshotSkipsEmptyStages(t *testing.T) {
	tel := testTelemetry()
	if len(tel.Stages) != 3 {
		t.Fatalf("Stages = %d, want 3 (zero-count stages skipped)", len(tel.Stages))
	}
	pf := tel.Stage("premature_flush")
	if pf.Count != 1 || pf.ByCause["zone_conflict"] != 1 {
		t.Fatalf("premature_flush stats = %+v", pf)
	}
	if got := tel.Stage("no_such_stage"); got.Count != 0 {
		t.Fatalf("missing stage = %+v, want zero", got)
	}
	if len(tel.Events) != 3 {
		t.Fatalf("Events = %d, want 3", len(tel.Events))
	}
}

// TestSnapshotLeavesTheRing: a snapshot holds the aggregates only; a
// reader that renders a timeline copies the ring through Events.
func TestSnapshotLeavesTheRing(t *testing.T) {
	r := NewRecorder(16)
	r.Record(ev(StageMapFetch, CauseBitmap, 0, time.Microsecond))
	if snap := r.Snapshot(); len(snap.Events) != 0 || snap.Recorded != 1 {
		t.Fatalf("Snapshot = %+v, want one recorded event and no ring copy", snap)
	}
}

func TestWritePrometheus(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteExposition(&buf, testTelemetry().Expose); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`conzone_stage_spans_total{stage="premature_flush"} 1`,
		`conzone_stage_cause_total{stage="premature_flush",cause="zone_conflict"} 1`,
		`conzone_stage_cause_total{stage="map_fetch",cause="bitmap"} 1`,
		`conzone_stage_latency_seconds{stage="premature_flush",quantile="0.5"}`,
		`conzone_stage_latency_seconds_count{stage="nand_program"} 1`,
		`conzone_events_recorded_total 3`,
		`conzone_events_dropped_total 0`,
		`conzone_resource_busy_seconds_total{resource="chan0"} 0.003`,
		`conzone_resource_ops_total{resource="chan0"} 7`,
		`conzone_resource_utilization{resource="chan0"} 0.5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := testTelemetry().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Stages []struct {
			Stage   string           `json:"stage"`
			Count   int64            `json:"count"`
			ByCause map[string]int64 `json:"by_cause"`
			Latency struct {
				Count  int64  `json:"count"`
				MeanNS int64  `json:"mean_ns"`
				SumNS  int64  `json:"sum_ns"`
				Pretty string `json:"pretty"`
			} `json:"latency"`
		} `json:"stages"`
		Recorded int64            `json:"events_recorded"`
		Events   *json.RawMessage `json:"events"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("telemetry JSON does not parse: %v\n%s", err, buf.String())
	}
	if decoded.Recorded != 3 || len(decoded.Stages) != 3 {
		t.Fatalf("decoded = %+v", decoded)
	}
	if decoded.Events != nil {
		t.Fatal("raw events leaked into the JSON metrics snapshot")
	}
	found := false
	for _, s := range decoded.Stages {
		if s.Stage == "premature_flush" {
			found = true
			if s.ByCause["zone_conflict"] != 1 {
				t.Fatalf("by_cause = %v", s.ByCause)
			}
			if s.Latency.MeanNS != int64(time.Millisecond) {
				t.Fatalf("mean_ns = %d, want %d", s.Latency.MeanNS, time.Millisecond)
			}
			if s.Latency.SumNS != int64(time.Millisecond) {
				t.Fatalf("sum_ns = %d, want %d", s.Latency.SumNS, time.Millisecond)
			}
			if s.Latency.Pretty == "" {
				t.Fatal("latency missing pretty rendering")
			}
		}
	}
	if !found {
		t.Fatal("premature_flush stage absent from JSON")
	}
}

func TestWriteChromeTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := testTelemetry().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			Dur   float64        `json:"dur"`
			TID   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var spans, meta int
	for _, e := range doc.TraceEvents {
		switch e.Phase {
		case "X":
			spans++
			if e.Dur <= 0 {
				t.Fatalf("span %q has non-positive dur %v", e.Name, e.Dur)
			}
		case "M":
			meta++
		default:
			t.Fatalf("unexpected phase %q", e.Phase)
		}
		if e.Phase == "X" && e.Name == "premature_flush" {
			if e.Args["cause"] != "zone_conflict" {
				t.Fatalf("premature_flush args = %v", e.Args)
			}
			// 1ms duration in microseconds.
			if e.Dur != 1000 {
				t.Fatalf("premature_flush dur = %v µs, want 1000", e.Dur)
			}
		}
	}
	if spans != 3 {
		t.Fatalf("span events = %d, want 3", spans)
	}
	if meta == 0 {
		t.Fatal("no metadata events emitted")
	}
}

func TestChromeTrackSeparation(t *testing.T) {
	host, _ := chromeTrack(Event{Stage: StageHostWrite})
	chip3, name := chromeTrack(Event{Stage: StageNANDRead, Actor: 3})
	gc, _ := chromeTrack(Event{Stage: StageGCCollect})
	ftl, _ := chromeTrack(Event{Stage: StageSLCStage})
	if host != 0 {
		t.Fatalf("host tid = %d, want 0", host)
	}
	if chip3 != 103 || name != "chip 3" {
		t.Fatalf("chip tid = %d name = %q", chip3, name)
	}
	seen := map[int]bool{host: true}
	for _, tid := range []int{chip3, gc, ftl} {
		if seen[tid] {
			t.Fatalf("tid collision at %d", tid)
		}
		seen[tid] = true
	}
}

// BenchmarkRecordDisabled is the allocation guard for the disabled
// telemetry path; CI runs it at -benchtime=200000x and asserts 0 allocs/op
// (at 1x the one timed iteration is the binary's first benchmark run and can
// catch allocations made outside the path). TestRecordDisabledNoAllocs pins
// the same property under go test.
func BenchmarkRecordDisabled(b *testing.B) {
	var r *Recorder
	e := ev(StageNANDProgram, CauseNone, 0, 200*time.Microsecond)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(e)
	}
}

// BenchmarkRecordEnabled measures the steady-state enabled cost.
func BenchmarkRecordEnabled(b *testing.B) {
	r := NewRecorder(DefaultRingSize)
	e := ev(StageNANDProgram, CauseNone, 0, 200*time.Microsecond)
	r.Record(e) // lazy histogram init happens outside the measured loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Record(e)
	}
}
