package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/stats"
)

// StageStats is the aggregated view of one lifecycle stage.
type StageStats struct {
	Stage   string           `json:"stage"`
	Count   int64            `json:"count"`
	ByCause map[string]int64 `json:"by_cause,omitempty"`
	Latency stats.Summary    `json:"latency"`
}

// Telemetry is a self-contained snapshot of a device's observation state:
// per-stage span counts and latency histogram summaries, cause breakdowns,
// hardware-resource usage and, for a reader that renders a timeline, the
// flight-recorder contents. It marshals to JSON directly and declares its
// Prometheus families through Expose; with Events filled it renders a
// Chrome Trace Event file.
type Telemetry struct {
	Stages    []StageStats        `json:"stages"`
	Recorded  int64               `json:"events_recorded"`
	Dropped   int64               `json:"events_dropped"`
	Resources []sim.ResourceUsage `json:"resources,omitempty"`

	// Events is the retained flight-recorder window, oldest first
	// (Recorder.Events). Snapshot leaves it empty: it feeds
	// WriteChromeTrace only and is excluded from the JSON metrics snapshot
	// (a timeline is not a metric).
	Events []Event `json:"-"`
}

// Snapshot captures the recorder's current aggregates, without copying the
// ring. Nil-safe: a nil recorder yields a zero Telemetry.
func (r *Recorder) Snapshot() Telemetry {
	if r == nil {
		return Telemetry{}
	}
	t := Telemetry{
		Recorded: r.Recorded(),
		Dropped:  r.Dropped(),
	}
	for s := Stage(0); s < NumStages; s++ {
		if r.counts[s] == 0 {
			continue
		}
		ss := StageStats{
			Stage:   s.String(),
			Count:   r.counts[s],
			Latency: r.hist[s].Summarize(),
		}
		for c := Cause(1); c < NumCauses; c++ {
			if n := r.causes[s][c]; n > 0 {
				if ss.ByCause == nil {
					ss.ByCause = make(map[string]int64)
				}
				ss.ByCause[c.String()] = n
			}
		}
		t.Stages = append(t.Stages, ss)
	}
	return t
}

// Stage returns the stats of the named stage (zero value when absent).
func (t Telemetry) Stage(name string) StageStats {
	for _, s := range t.Stages {
		if s.Stage == name {
			return s
		}
	}
	return StageStats{}
}

// WriteJSON writes the snapshot as indented JSON.
func (t Telemetry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// Expose declares the telemetry's families: per-stage span counters,
// cause-qualified counters, per-stage latency summaries, flight-recorder
// counters and, when the snapshot carries them, per-resource busy time,
// operations and utilization. All durations are virtual (simulated) time.
func (t Telemetry) Expose(e *Exposition) {
	e.Family("conzone_stage_spans_total", "counter", "Lifecycle spans recorded per stage.")
	for _, s := range t.Stages {
		e.Int(s.Count, "stage", s.Stage)
	}
	e.Family("conzone_stage_cause_total", "counter", "Lifecycle spans per stage and cause.")
	for _, s := range t.Stages {
		causes := make([]string, 0, len(s.ByCause))
		for c := range s.ByCause {
			causes = append(causes, c)
		}
		sort.Strings(causes)
		for _, c := range causes {
			e.Int(s.ByCause[c], "stage", s.Stage, "cause", c)
		}
	}
	e.Family("conzone_stage_latency_seconds", "summary", "Per-stage latency in simulated seconds.")
	for _, s := range t.Stages {
		e.Summary(s.Latency, "stage", s.Stage)
	}
	e.Family("conzone_events_recorded_total", "counter", "Events ever recorded.")
	e.Int(t.Recorded)
	e.Family("conzone_events_dropped_total", "counter", "Events overwritten in the flight-recorder ring.")
	e.Int(t.Dropped)
	if len(t.Resources) == 0 {
		return
	}
	e.Family("conzone_resource_busy_seconds_total", "counter", "Simulated busy time per hardware resource.")
	for _, r := range t.Resources {
		e.Float(r.BusyTime.Seconds(), "resource", r.Name)
	}
	e.Family("conzone_resource_ops_total", "counter", "Operations reserved per hardware resource.")
	for _, r := range t.Resources {
		e.Int(r.Ops, "resource", r.Name)
	}
	e.Family("conzone_resource_utilization", "gauge", "Busy fraction of the simulated horizon.")
	for _, r := range t.Resources {
		e.Float(r.Utilization, "resource", r.Name)
	}
}

// chromeTrack maps a stage to a Chrome Trace tid so that overlapping
// spans of unrelated stages never share a track. NAND events get one
// track per chip.
func chromeTrack(e Event) (tid int, name string) {
	switch e.Stage {
	case StageNANDRead, StageNANDProgram, StageNANDErase:
		chip := int(e.Actor)
		if chip < 0 {
			chip = 0
		}
		return 100 + chip, fmt.Sprintf("chip %d", chip)
	case StageHostWrite, StageHostRead:
		return 0, "host"
	case StageGCCollect, StageGCMigrate, StageGCErase:
		return 40 + int(e.Stage), "gc: " + e.Stage.String()
	default:
		return 2 + int(e.Stage), "ftl: " + e.Stage.String()
	}
}

// chromeEvent is one Trace Event Format entry.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`            // microseconds
	Dur   float64        `json:"dur,omitempty"` // microseconds
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes the retained events as a Chrome Trace Event
// Format file (JSON object form) loadable in chrome://tracing or Perfetto.
// Timestamps are the simulated timeline in microseconds.
func (t Telemetry) WriteChromeTrace(w io.Writer) error {
	events := make([]chromeEvent, 0, len(t.Events)+20)
	events = append(events, chromeEvent{
		Name: "process_name", Phase: "M", PID: 0,
		Args: map[string]any{"name": "conzone"},
	})
	named := make(map[int]bool)
	for _, e := range t.Events {
		tid, tname := chromeTrack(e)
		if !named[tid] {
			named[tid] = true
			events = append(events, chromeEvent{
				Name: "thread_name", Phase: "M", PID: 0, TID: tid,
				Args: map[string]any{"name": tname},
			})
			events = append(events, chromeEvent{
				Name: "thread_sort_index", Phase: "M", PID: 0, TID: tid,
				Args: map[string]any{"sort_index": tid},
			})
		}
		args := map[string]any{"seq": e.Seq}
		if e.Cause != CauseNone {
			args["cause"] = e.Cause.String()
		}
		if e.Zone >= 0 {
			args["zone"] = e.Zone
		}
		if e.LBA >= 0 {
			args["lba"] = e.LBA
		}
		if e.N != 0 {
			args["n"] = e.N
		}
		events = append(events, chromeEvent{
			Name:  e.Stage.String(),
			Cat:   "conzone",
			Phase: "X",
			TS:    float64(e.Begin) / 1e3,
			Dur:   float64(e.Duration()) / 1e3,
			PID:   0,
			TID:   tid,
			Args:  args,
		})
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ns"})
}
