package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
)

// Series and snapshot exporters. The Prometheus exporter walks the unified
// Stats struct with reflection, deriving metric names from field names, so
// a counter added to any subsystem's Stats shows up on /metrics without
// touching this file — the drift between "counters we keep" and "counters
// we export" that ISSUE 7 closes cannot reopen.

// WriteSeriesJSONL writes the samples as JSON Lines: one self-contained
// sample object per line, the format the analysis scripts and
// conzone-bench -exp timeseries emit.
func WriteSeriesJSONL(w io.Writer, samples []Sample) error {
	enc := json.NewEncoder(w)
	for _, s := range samples {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// seriesCSVHeader lists the spreadsheet-friendly projection of a sample:
// the curves the paper's evaluation plots (WAF, GC activity, staging
// occupancy over virtual time), not every counter.
var seriesCSVHeader = []string{
	"seq", "at_s", "discontinuity",
	"host_written_bytes", "nand_programmed_bytes", "waf_interval", "waf_cum",
	"gc_migrated_sectors", "gc_collections", "erases",
	"slc_valid_sectors", "slc_free_superblocks", "buffered_sectors",
	"free_superblocks", "spare_remaining", "open_zones", "active_zones",
	"l2p_miss_interval", "grown_bad_blocks", "power_cuts", "recoveries", "read_only",
}

// WriteSeriesCSV writes the samples as CSV with one row per sample.
// Interval columns come from the sample delta; occupancy and robustness
// columns are the instantaneous/cumulative readings.
func WriteSeriesCSV(w io.Writer, samples []Sample) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("%s\n", strings.Join(seriesCSVHeader, ","))
	b := func(v bool) int {
		if v {
			return 1
		}
		return 0
	}
	for _, s := range samples {
		o := s.Stats.Occupancy
		p("%d,%.6f,%d,%d,%d,%.4f,%.4f,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.4f,%d,%d,%d,%d\n",
			s.Seq, float64(s.At)/1e9, b(s.Discontinuity),
			s.Delta.FTL.HostWrittenBytes, s.Delta.NAND.BytesProgrammed, s.Delta.WAF, s.Stats.WAF,
			s.Delta.Staging.Migrated, s.Delta.Staging.Collections, s.Delta.NAND.Erases,
			o.SLCValidSectors, o.SLCFreeSuperblocks, o.BufferedSectors,
			o.FreeSuperblocks, o.SpareRemaining, o.OpenZones, o.ActiveZones,
			s.Delta.L2PMissRatio, s.Stats.GrownBadBlocks, s.Stats.PowerCuts, s.Stats.Recoveries,
			b(o.ReadOnly))
	}
	return err
}

// snakeCase converts a Go field name to Prometheus snake_case, keeping
// initialism runs intact: HostWrittenBytes -> host_written_bytes,
// PUPrograms -> pu_programs, L2PLogFlushes -> l2p_log_flushes, and
// pluralized initialisms whole: DirectPUs -> direct_pus.
func snakeCase(name string) string {
	var b strings.Builder
	rs := []rune(name)
	lower := func(r rune) bool { return r >= 'a' && r <= 'z' }
	upper := func(r rune) bool { return r >= 'A' && r <= 'Z' }
	for i, r := range rs {
		if upper(r) {
			nextLower := i+1 < len(rs) && lower(rs[i+1])
			// A trailing plural 's' does not start a new word ("PUs").
			pluralEnd := i+1 < len(rs) && rs[i+1] == 's' &&
				(i+2 == len(rs) || !lower(rs[i+2]))
			if i > 0 && (lower(rs[i-1]) || (upper(rs[i-1]) && nextLower && !pluralEnd)) {
				b.WriteByte('_')
			}
			r += 'a' - 'A'
		}
		b.WriteRune(r)
	}
	return b.String()
}

// jsonName returns a struct field's json tag name, falling back to the
// snake_cased Go name when untagged (the subsystem Stats structs carry no
// tags).
func jsonName(f reflect.StructField) string {
	tag := f.Tag.Get("json")
	if tag != "" {
		if i := strings.IndexByte(tag, ','); i >= 0 {
			tag = tag[:i]
		}
		if tag != "" && tag != "-" {
			return tag
		}
	}
	return snakeCase(f.Name)
}

// promMetric is one resolved sample of a snapshot walk: final metric name
// (the _total suffix already applied), Prometheus type, and value.
type promMetric struct {
	name    string
	typ     string // "counter" or "gauge"
	isFloat bool
	intVal  int64
	fltVal  float64
}

// promMetrics flattens the unified snapshot into exportable samples.
// Integer counter fields become conzone_<group>_<field>_total counters;
// float ratios, booleans and the occupancy block become gauges. The walk is
// reflective so every field of every subsystem's Stats — including the
// fault, bad-block and power-loss counters — is exported by construction.
func (s Stats) promMetrics() []promMetric {
	var out []promMetric
	addInt := func(name, typ string, v int64) {
		out = append(out, promMetric{name: name, typ: typ, intVal: v})
	}
	addFloat := func(name string, v float64) {
		out = append(out, promMetric{name: name, typ: "gauge", isFloat: true, fltVal: v})
	}

	v := reflect.ValueOf(s)
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		fv := v.Field(i)
		base := "conzone_" + jsonName(f)
		switch fv.Kind() {
		case reflect.Struct:
			// Occupancy fields are gauges; every other nested struct is a
			// block of monotonic counters.
			gauge := f.Type == reflect.TypeOf(Occupancy{})
			ft := fv.Type()
			for j := 0; j < ft.NumField(); j++ {
				name := base + "_" + jsonName(ft.Field(j))
				sub := fv.Field(j)
				switch sub.Kind() {
				case reflect.Int64, reflect.Int:
					if gauge {
						addInt(name, "gauge", sub.Int())
					} else {
						addInt(name+"_total", "counter", sub.Int())
					}
				case reflect.Float64:
					addFloat(name, sub.Float())
				case reflect.Bool:
					var b int64
					if sub.Bool() {
						b = 1
					}
					addInt(name, "gauge", b)
				}
			}
		case reflect.Int64, reflect.Int:
			addInt(base+"_total", "counter", fv.Int())
		case reflect.Float64:
			addFloat(base, fv.Float())
		}
	}
	return out
}

// WritePrometheus writes the unified snapshot in the Prometheus text
// exposition format (version 0.0.4). See promMetrics for the naming rules.
func (s Stats) WritePrometheus(w io.Writer) error {
	return WritePrometheusLabeled(w, []LabeledStats{{Stats: s}})
}

// LabeledStats pairs a snapshot with a Prometheus label set, e.g.
// `cohort="worn-qlc"` (no surrounding braces). Fleet exports use one entry
// per cohort plus the grand total.
type LabeledStats struct {
	Labels string
	Stats  Stats
}

// WritePrometheusLabeled writes many labelled snapshots as one valid
// exposition: samples are grouped metric-major (one HELP/TYPE header per
// metric, then one labelled sample per snapshot), which is what Prometheus
// requires and what a single-device WritePrometheus degenerates to.
func WritePrometheusLabeled(w io.Writer, sets []LabeledStats) error {
	if len(sets) == 0 {
		return nil
	}
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	walks := make([][]promMetric, len(sets))
	for i, set := range sets {
		walks[i] = set.Stats.promMetrics()
	}
	// Every walk of the same Stats type yields the same metric sequence;
	// iterate it once and emit each metric's samples across all label sets.
	for m := range walks[0] {
		p("# HELP %s Unified device snapshot field %s.\n", walks[0][m].name, walks[0][m].name)
		p("# TYPE %s %s\n", walks[0][m].name, walks[0][m].typ)
		for i := range sets {
			met := walks[i][m]
			name := met.name
			if sets[i].Labels != "" {
				name += "{" + sets[i].Labels + "}"
			}
			if met.isFloat {
				p("%s %g\n", name, met.fltVal)
			} else {
				p("%s %d\n", name, met.intVal)
			}
		}
	}
	return err
}

// WriteJSON writes the spatial snapshot as indented JSON (the /zones.json
// payload).
func (t ZoneTable) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// WritePrometheus writes the spatial snapshot as zone- and
// superblock-labelled gauges.
func (t ZoneTable) WritePrometheus(w io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	head := func(name, help string) {
		p("# HELP %s %s\n", name, help)
		p("# TYPE %s gauge\n", name)
	}
	head("conzone_zone_fill_frac", "Write-pointer fill fraction per zone.")
	for _, z := range t.Zones {
		p("conzone_zone_fill_frac{zone=\"%d\",state=%q} %g\n", z.Zone, z.State, z.FillFrac)
	}
	head("conzone_zone_valid_frac", "Estimated live-data fraction per zone.")
	for _, z := range t.Zones {
		p("conzone_zone_valid_frac{zone=\"%d\"} %g\n", z.Zone, z.ValidFrac)
	}
	head("conzone_zone_staged_sectors", "SLC-resident sectors per zone.")
	for _, z := range t.Zones {
		p("conzone_zone_staged_sectors{zone=\"%d\"} %d\n", z.Zone, z.Staged)
	}
	head("conzone_zone_erase_mean", "Mean per-chip erase count of the zone's bound superblock.")
	for _, z := range t.Zones {
		p("conzone_zone_erase_mean{zone=\"%d\"} %g\n", z.Zone, z.EraseMean)
	}
	head("conzone_slc_sb_valid_frac", "Live-sector fraction per SLC staging superblock.")
	for _, b := range t.SLC {
		p("conzone_slc_sb_valid_frac{sb=\"%d\"} %g\n", b.SB, b.ValidFrac)
	}
	head("conzone_slc_sb_erase_mean", "Mean per-chip erase count per SLC staging superblock.")
	for _, b := range t.SLC {
		p("conzone_slc_sb_erase_mean{sb=\"%d\"} %g\n", b.SB, b.EraseMean)
	}
	return err
}

// shades maps a [0,1] fraction to a density glyph for the textual heatmap.
var shades = []byte(" .:-=+*#%@")

func shade(frac float64) byte {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	i := int(frac * float64(len(shades)-1))
	return shades[i]
}

// heatmapCols is the zone-grid width of the textual heatmap.
const heatmapCols = 64

// WriteHeatmap renders the spatial snapshot as textual heatmaps: one glyph
// per zone (rows of heatmapCols), one grid for write-pointer fill, one for
// live-data fraction, one for wear (erase counts normalized to the hottest
// superblock), plus a one-line-per-superblock SLC occupancy bar.
func (t ZoneTable) WriteHeatmap(w io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	grid := func(title string, frac func(ZoneHeat) float64) {
		p("%s (one glyph per zone, scale \"%s\" = 0..1)\n", title, shades)
		for row := 0; row < len(t.Zones); row += heatmapCols {
			end := row + heatmapCols
			if end > len(t.Zones) {
				end = len(t.Zones)
			}
			p("  %4d  ", row)
			for _, z := range t.Zones[row:end] {
				p("%c", shade(frac(z)))
			}
			p("\n")
		}
	}
	p("zones: %d   virtual time: %.3fs\n\n", len(t.Zones), float64(t.At)/1e9)
	grid("zone fill (write pointer / capacity)", func(z ZoneHeat) float64 { return z.FillFrac })
	p("\n")
	grid("zone live data (valid / capacity)", func(z ZoneHeat) float64 { return z.ValidFrac })
	p("\n")

	var maxErase float64
	for _, z := range t.Zones {
		if z.EraseMean > maxErase {
			maxErase = z.EraseMean
		}
	}
	p("zone wear (erase mean / max=%.1f)\n", maxErase)
	for row := 0; row < len(t.Zones); row += heatmapCols {
		end := row + heatmapCols
		if end > len(t.Zones) {
			end = len(t.Zones)
		}
		p("  %4d  ", row)
		for _, z := range t.Zones[row:end] {
			f := 0.0
			if maxErase > 0 {
				f = z.EraseMean / maxErase
			}
			p("%c", shade(f))
		}
		p("\n")
	}

	p("\nslc staging superblocks (valid/capacity, erase mean)\n")
	for _, b := range t.SLC {
		bar := make([]byte, 32)
		fill := int(b.ValidFrac * float64(len(bar)))
		for i := range bar {
			if i < fill {
				bar[i] = '#'
			} else {
				bar[i] = '.'
			}
		}
		status := "      "
		switch {
		case b.Retired:
			status = "RETIRD"
		case b.Free:
			status = "free  "
		}
		p("  sb %3d %s [%s] %5d/%5d  erases %.1f\n",
			b.SB, status, bar, b.Valid, b.Capacity, b.EraseMean)
	}
	return err
}
