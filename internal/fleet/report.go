package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/conzone/conzone/internal/obs"
	"github.com/conzone/conzone/internal/telemetry"
)

// Reporting. Everything written here is a pure function of the merged
// Result: no wall-clock time, no worker count, no map iteration — the
// fleet determinism pin (byte-identical output across runs and pool sizes)
// hashes these bytes.

// WriteReport writes the human-readable population report: one row per
// cohort plus the whole-fleet row.
func (r *Result) WriteReport(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: seed=%d devices=%d cohorts=%d\n",
		r.Spec.Seed, r.Fleet.Devices, len(r.Cohorts))
	fmt.Fprintf(&b, "%-12s %8s %6s %6s %6s %10s %12s %8s  %-42s %8s\n",
		"cohort", "devices", "fail", "plost", "rdonly", "ops", "bytes", "ioerr",
		"latency p50/p99/p99.9/max", "waf")
	for _, c := range r.rows() {
		fmt.Fprintf(&b, "%-12s %8d %6d %6d %6d %10d %12d %8d  %-42s %8.4f\n",
			c.Name, c.Devices, c.Failed, c.PowerLost, c.ReadOnly,
			c.Ops, c.Bytes, c.IOErrors,
			latCell(c), c.Telemetry.WAF)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func latCell(c *CohortResult) string {
	if c.Lat.Count == 0 {
		return "-"
	}
	return fmt.Sprintf("%s/%s/%s/%s",
		fmtDur(c.Lat.P50), fmtDur(c.Lat.P99), fmtDur(c.Lat.P999), fmtDur(c.Lat.Max))
}

// fmtDur renders a duration with microsecond precision — stable across
// value magnitudes, unlike Duration.String()'s adaptive units.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3fus", float64(d)/float64(time.Microsecond))
}

// WriteMetrics writes the Prometheus exposition: fleet-level population
// gauges and the population latency summary per cohort, then every
// telemetry counter with per-cohort labels plus the unlabeled-equivalent
// fleet sum (cohort="fleet").
func (r *Result) WriteMetrics(w io.Writer) error {
	rows := r.rows()
	names := make([]string, len(rows))
	sets := make([]telemetry.Stats, len(rows))
	for i, c := range rows {
		names[i], sets[i] = c.Name, c.Telemetry
	}
	population := func(e *obs.Exposition) {
		for _, m := range []struct {
			name, help string
			val        func(*CohortResult) int64
		}{
			{"conzone_fleet_devices", "Devices simulated.", func(c *CohortResult) int64 { return int64(c.Devices) }},
			{"conzone_fleet_devices_failed", "Devices that failed to build or run.", func(c *CohortResult) int64 { return int64(c.Failed) }},
			{"conzone_fleet_devices_power_lost", "Devices whose power cut fired.", func(c *CohortResult) int64 { return int64(c.PowerLost) }},
			{"conzone_fleet_devices_read_only", "Devices that ended read-only.", func(c *CohortResult) int64 { return int64(c.ReadOnly) }},
			{"conzone_fleet_io_errors", "Failed host operations.", func(c *CohortResult) int64 { return c.IOErrors }},
		} {
			e.Family(m.name, "gauge", m.help)
			for _, c := range rows {
				e.Int(m.val(c), "cohort", c.Name)
			}
		}
		e.Family("conzone_fleet_latency_seconds", "summary", "Population latency in simulated seconds.")
		for _, c := range rows {
			e.Summary(c.Lat, "cohort", c.Name)
		}
	}
	return obs.WriteExposition(w, population, func(e *obs.Exposition) {
		telemetry.ExposeStats(e, "cohort", names, sets...)
	})
}

// rows returns the cohorts, then the whole-fleet row.
func (r *Result) rows() []*CohortResult {
	rows := make([]*CohortResult, 0, len(r.Cohorts)+1)
	for i := range r.Cohorts {
		rows = append(rows, &r.Cohorts[i])
	}
	return append(rows, &r.Fleet)
}

// Digest returns the SHA-256 over the report and metrics bytes — the value
// the determinism tests and the CI fleet smoke pin. Two runs of the same
// spec must produce the same digest at any worker count.
func (r *Result) Digest() string {
	h := sha256.New()
	_ = r.WriteReport(h)
	_ = r.WriteMetrics(h)
	return hex.EncodeToString(h.Sum(nil))
}
