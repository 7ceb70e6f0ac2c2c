package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"

	"github.com/conzone/conzone/internal/obs"
)

// Series and snapshot exporters. The Prometheus families of the unified
// Stats come from a reflective walk that derives metric names from field
// names, so a counter added to any subsystem's Stats shows up on /metrics
// without touching this file: the counters kept and the counters exported
// cannot drift apart. Every family is written through obs.Exposition.

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
			s.Delta.L2PMissRatio, s.Stats.FTL.RetiredSuperblocks, s.Stats.PowerCuts, s.Stats.Recoveries,
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

// Expose declares the unified snapshot's families, unlabeled. See
// ExposeStats for the naming rules.
func (s Stats) Expose(e *obs.Exposition) { ExposeStats(e, "", nil, s) }

// ExposeStats declares one family per numeric field of the unified
// snapshot and writes one sample per set under it, in set order — metric
// major, as the exposition format requires of a labelled family. Sample i
// carries the label label=values[i]; with label "" the samples are
// unlabeled, which is how a single device exposes itself. Integer counter
// fields become conzone_<group>_<field>_total counters; float ratios,
// booleans and the occupancy block become gauges. The walk is reflective,
// so every field of every subsystem's Stats — the fault, bad-block and
// power-loss counters included — is exported by construction.
func ExposeStats(e *obs.Exposition, label string, values []string, sets ...Stats) {
	family := func(name string, gauge bool, field reflect.StructField, index ...int) {
		switch field.Type.Kind() {
		case reflect.Float64, reflect.Bool:
			gauge = true
		case reflect.Int64, reflect.Int:
		default:
			return
		}
		typ := "gauge"
		if !gauge {
			name, typ = name+"_total", "counter"
		}
		e.Family(name, typ, "Unified device snapshot field "+name+".")
		for i := range sets {
			var labels []string
			if label != "" {
				labels = []string{label, values[i]}
			}
			switch f := reflect.ValueOf(sets[i]).FieldByIndex(index); f.Kind() {
			case reflect.Float64:
				e.Float(f.Float(), labels...)
			case reflect.Bool:
				var b int64
				if f.Bool() {
					b = 1
				}
				e.Int(b, labels...)
			default:
				e.Int(f.Int(), labels...)
			}
		}
	}
	t := reflect.TypeOf(Stats{})
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		base := "conzone_" + jsonName(f)
		if f.Type.Kind() != reflect.Struct {
			family(base, false, f, i)
			continue
		}
		// Occupancy fields are gauges; every other nested struct is a
		// block of monotonic counters.
		gauge := f.Type == reflect.TypeOf(Occupancy{})
		for j := 0; j < f.Type.NumField(); j++ {
			family(base+"_"+jsonName(f.Type.Field(j)), gauge, f.Type.Field(j), i, j)
		}
	}
}

// Expose declares the spatial snapshot's zone- and
// superblock-labelled gauges.
func (t ZoneTable) Expose(e *obs.Exposition) {
	e.Family("conzone_zone_fill_frac", "gauge", "Write-pointer fill fraction per zone.")
	for _, z := range t.Zones {
		e.Float(z.FillFrac, "zone", strconv.Itoa(z.Zone), "state", z.State)
	}
	e.Family("conzone_zone_valid_frac", "gauge", "Estimated live-data fraction per zone.")
	for _, z := range t.Zones {
		e.Float(z.ValidFrac, "zone", strconv.Itoa(z.Zone))
	}
	e.Family("conzone_zone_staged_sectors", "gauge", "SLC-resident sectors per zone.")
	for _, z := range t.Zones {
		e.Int(z.Staged, "zone", strconv.Itoa(z.Zone))
	}
	e.Family("conzone_zone_erase_mean", "gauge", "Mean per-chip erase count of the zone's bound superblock.")
	for _, z := range t.Zones {
		e.Float(z.EraseMean, "zone", strconv.Itoa(z.Zone))
	}
	e.Family("conzone_slc_sb_valid_frac", "gauge", "Live-sector fraction per SLC staging superblock.")
	for _, b := range t.SLC {
		e.Float(b.ValidFrac, "sb", strconv.Itoa(b.SB))
	}
	e.Family("conzone_slc_sb_erase_mean", "gauge", "Mean per-chip erase count per SLC staging superblock.")
	for _, b := range t.SLC {
		e.Float(b.EraseMean, "sb", strconv.Itoa(b.SB))
	}
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
	grid := func(header string, frac func(ZoneHeat) float64) {
		p("%s\n", header)
		for row := 0; row < len(t.Zones); row += heatmapCols {
			p("  %4d  ", row)
			for _, z := range t.Zones[row:min(row+heatmapCols, len(t.Zones))] {
				p("%c", shade(frac(z)))
			}
			p("\n")
		}
	}
	scale := fmt.Sprintf(" (one glyph per zone, scale \"%s\" = 0..1)", shades)
	p("zones: %d   virtual time: %.3fs\n\n", len(t.Zones), float64(t.At)/1e9)
	grid("zone fill (write pointer / capacity)"+scale, func(z ZoneHeat) float64 { return z.FillFrac })
	p("\n")
	grid("zone live data (valid / capacity)"+scale, func(z ZoneHeat) float64 { return z.ValidFrac })
	p("\n")
	var maxErase float64
	for _, z := range t.Zones {
		maxErase = max(maxErase, z.EraseMean)
	}
	grid(fmt.Sprintf("zone wear (erase mean / max=%.1f)", maxErase), func(z ZoneHeat) float64 {
		if maxErase == 0 {
			return 0
		}
		return z.EraseMean / maxErase
	})

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
