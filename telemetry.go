package conzone

import (
	"net/http"
	"time"

	"github.com/conzone/conzone/internal/obs"
	"github.com/conzone/conzone/internal/telemetry"
)

// Virtual-time telemetry: the public face of internal/telemetry. A device
// with sampling enabled records a unified Stats snapshot (plus the interval
// delta) every SampleInterval of *simulated* time into a fixed ring —
// entirely passively, from the same clock advance every I/O already
// performs, with zero steady-state heap allocations. The series, the
// per-zone heat tables and the live scrape endpoint below are how the
// paper-style "WAF over time" and "GC activity over time" curves are
// produced; see the Observability section of the README.

// Telemetry series types re-exported for consumers.
type (
	// Sample is one point of the virtual-time series: cumulative Stats
	// plus the delta since the previous sample.
	Sample = telemetry.Sample
	// ZoneTable is the spatial snapshot: per-zone and per-SLC-superblock
	// heat rows at one virtual instant.
	ZoneTable = telemetry.ZoneTable
	// ZoneHeat is one zone's heat row.
	ZoneHeat = telemetry.ZoneHeat
	// SLCHeat is one SLC staging superblock's heat row.
	SLCHeat = telemetry.SLCHeat
)

// EnableSampling arms the virtual-time sampler: every interval of simulated
// time (measured on the device's virtual clock, not wall time) the device
// records one Sample into a ring of ringSize entries (<= 0 uses the default
// of 4096). The first sample boundary lands one interval after the current
// virtual instant. Enabling again replaces the sampler and clears the
// series. Sampling costs one integer comparison per clock advance while no
// boundary has been crossed, and zero heap allocations when one has.
func (d *Device) EnableSampling(interval time.Duration, ringSize int) error {
	smp, err := telemetry.NewSampler(interval, ringSize)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	smp.Prime(d.now, telemetry.Collect(d.f))
	d.smp = smp
	return nil
}

// Series returns the retained samples, oldest first (nil when sampling is
// disabled or nothing has been recorded yet). Queued asynchronous commands
// are dispatched first, so the series covers every boundary they cross.
func (d *Device) Series() []Sample {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.advance(d.h.Kick())
	return d.smp.Samples()
}

// SamplesRecorded returns how many samples were ever recorded and how many
// the ring has overwritten, after dispatching queued commands as Series does.
func (d *Device) SamplesRecorded() (recorded, dropped int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.advance(d.h.Kick())
	return d.smp.Recorded(), d.smp.Dropped()
}

// Heatmap takes the spatial snapshot: one heat row per zone (state, write
// pointer fill, live-data fraction, staged sectors, superblock wear) and
// one per SLC staging superblock. Queued asynchronous commands are
// dispatched first so the table is current.
func (d *Device) Heatmap() ZoneTable {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.advance(d.h.Kick())
	return telemetry.CollectZones(d.f, d.now)
}

// ObservabilityHandler returns the device's live scrape endpoint, ready for
// http.ListenAndServe or an httptest server:
//
//	/metrics          Prometheus text exposition (unified stats, stage
//	                  latencies, per-zone heat gauges)
//	/timeseries.json  the retained virtual-time series
//	/zones.json       the spatial snapshot as JSON
//	/zones.txt        textual heatmaps
//	/debug/pprof/     live Go profiles of the emulator process
//
// Each request reads the device once, under the device lock; serving while
// a workload runs is safe, and every body describes one instant.
func (d *Device) ObservabilityHandler() *http.ServeMux {
	return telemetry.Handler(endpoint{d})
}

// endpoint answers the scrape endpoint: each method dispatches queued
// commands once and reads everything it returns under one hold of the
// device lock.
type endpoint struct{ d *Device }

func (e endpoint) Metrics() (Stats, obs.Telemetry, ZoneTable) {
	d := e.d
	d.mu.Lock()
	defer d.mu.Unlock()
	d.advance(d.h.Kick())
	return telemetry.Collect(d.f), d.f.Telemetry(), telemetry.CollectZones(d.f, d.now)
}

func (e endpoint) Timeseries() (time.Duration, []Sample) {
	d := e.d
	d.mu.Lock()
	defer d.mu.Unlock()
	d.advance(d.h.Kick())
	return d.smp.Interval(), d.smp.Samples()
}

func (e endpoint) Heatmap() ZoneTable { return e.d.Heatmap() }
