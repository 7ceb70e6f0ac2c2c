package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/conzone/conzone"
	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/telemetry"
	"github.com/conzone/conzone/internal/units"
	"github.com/conzone/conzone/internal/workload"
)

// sampleInterval is the virtual time between two samples of the series.
const sampleInterval = 5 * time.Millisecond

// runTimeseries samples a sustained random-write workload on the virtual
// clock and reports up to 24 evenly spaced samples of the retained series:
// the WAF and GC activity curves over virtual time. The whole series is
// offered as JSON Lines and CSV. (cmd/conzone-serve runs the same writer
// behind the live endpoint.)
func runTimeseries(cfg config.DeviceConfig, opt Options) (Report, error) {
	var none Report
	dev, err := conzone.Open(cfg)
	if err != nil {
		return none, err
	}
	dev.EnableObservation(0)
	if err := dev.EnableSampling(sampleInterval, 0); err != nil {
		return none, err
	}

	zones, factor := 8, int64(3)
	if opt.Reduced() {
		zones, factor = 4, 1
	}
	w := workload.NewZoneBurst(dev, zones)
	total := int64(w.Zones()) * dev.ZoneBytes() * factor
	for written := int64(0); written < total; written += workload.ZoneBurstBytes {
		if err := w.Step(); err != nil {
			return none, err
		}
	}
	if err := dev.Flush(); err != nil {
		return none, err
	}

	series := dev.Series()
	recorded, dropped := dev.SamplesRecorded()
	rep := Report{
		Title: fmt.Sprintf("Virtual-time series: random %s writes over %d zones, %s total, sampled every %v",
			units.FormatBytes(workload.ZoneBurstBytes), w.Zones(), units.FormatBytes(total), sampleInterval),
		Tables: []Table{{Notes: []string{
			fmt.Sprintf("samples: %d recorded, %d retained, %d overwritten", recorded, len(series), dropped), ""}}},
		Pass: true,
		Artifacts: map[string]func(io.Writer) error{
			"series-jsonl": func(w io.Writer) error { return telemetry.WriteSeriesJSONL(w, series) },
			"series-csv":   func(w io.Writer) error { return telemetry.WriteSeriesCSV(w, series) },
		},
	}
	if len(series) == 0 {
		return rep, nil
	}
	t := Table{Header: []string{"t(ms)", "written", "WAF(int)", "WAF(cum)", "GC migr", "GC runs",
		"SLC valid", "SLC free", "bufd", "free SB", "open"}}
	stride := (len(series) + 23) / 24
	for i := 0; i < len(series); i += stride {
		s := series[i]
		o := s.Stats.Occupancy
		at := fmt.Sprintf("%.1f", float64(s.At)/1e6)
		if s.Discontinuity {
			at += " *CUT*"
		}
		t.Add(at, units.FormatBytes(s.Delta.FTL.HostWrittenBytes),
			fmt.Sprintf("%.3f", s.Delta.WAF), fmt.Sprintf("%.3f", s.Stats.WAF),
			s.Delta.Staging.Migrated, s.Delta.Staging.Collections,
			o.SLCValidSectors, o.SLCFreeSuperblocks, o.BufferedSectors, o.FreeSuperblocks, o.OpenZones)
	}
	rep.Tables = append(rep.Tables, t)
	return rep, nil
}
