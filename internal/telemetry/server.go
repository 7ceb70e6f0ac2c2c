package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/pprof"

	"github.com/conzone/conzone/internal/obs"
	"github.com/conzone/conzone/internal/sim"
)

// writeJSON encodes v as indented JSON, ignoring transport errors (a
// scraper hanging up mid-response is its problem, not the device's).
func writeJSON(w io.Writer, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Source is what the scrape endpoint needs from a device, one method per
// endpoint. Each answers from one instant: a device reads everything a
// method returns under one hold of its lock, so the families of one /metrics
// body agree with each other.
type Source interface {
	// Metrics returns the /metrics sections: the unified snapshot, the
	// per-stage observation telemetry (its event ring left empty) and
	// the spatial snapshot.
	Metrics() (Stats, obs.Telemetry, ZoneTable)
	// Timeseries returns the sample interval (0 when sampling is
	// disabled) and the retained samples, oldest first.
	Timeseries() (sim.Duration, []Sample)
	// Heatmap returns the spatial snapshot.
	Heatmap() ZoneTable
}

// timeseriesPayload is the /timeseries.json response shape.
type timeseriesPayload struct {
	IntervalNs sim.Duration `json:"interval_ns"` // 0 when sampling is disabled
	Samples    []Sample     `json:"samples"`
}

// Handler builds the live observability endpoint over a source:
//
//	/metrics          Prometheus text exposition: unified snapshot,
//	                  per-stage latency summaries, per-zone heat gauges
//	/timeseries.json  the retained virtual-time sample series
//	/zones.json       the spatial per-zone / per-SLC-superblock snapshot
//	/debug/pprof/     the device process's own live Go profiles
//	/                 a plain-text index of the above
//
// Every request calls the source once, and the source answers under the
// device's own lock, so scraping a device mid-workload is safe and each
// body describes one instant; it observes, never mutates. The
// pprof handlers profile the emulator process itself (wall time, real
// allocations), complementing the virtual-time metrics.
func Handler(src Source) *http.ServeMux {
	mux := http.NewServeMux()

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		stats, tel, zones := src.Metrics()
		_ = obs.WriteExposition(w, stats.Expose, tel.Expose, zones.Expose)
	})

	mux.HandleFunc("/timeseries.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		interval, samples := src.Timeseries()
		writeJSON(w, timeseriesPayload{IntervalNs: interval, Samples: samples})
	})

	mux.HandleFunc("/zones.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, src.Heatmap())
	})

	mux.HandleFunc("/zones.txt", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = src.Heatmap().WriteHeatmap(w)
	})

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("conzone observability endpoint\n\n" +
			"  /metrics          Prometheus text exposition\n" +
			"  /timeseries.json  virtual-time sample series\n" +
			"  /zones.json       per-zone / per-SLC heat table\n" +
			"  /zones.txt        textual heatmaps\n" +
			"  /debug/pprof/     live Go profiles of this process\n"))
	})

	return mux
}
