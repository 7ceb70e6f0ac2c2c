package main

import (
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"

	"github.com/conzone/conzone"
	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/telemetry"
	"github.com/conzone/conzone/internal/units"
	"github.com/conzone/conzone/internal/workload"
)

// tsOptions bundles the -timeseries flag values.
type tsOptions struct {
	jsonl    string        // write the series as JSON Lines here
	csv      string        // write the series as CSV here
	interval time.Duration // virtual sample interval
	quick    bool
}

// runTimeseries is the -timeseries mode: sample a sustained random-write
// workload on the virtual clock, print the series and optionally export it.
// (cmd/conzone-serve runs the same writer behind the live endpoint.)
func runTimeseries(cfg config.DeviceConfig, opt tsOptions) error {
	dev, err := conzone.Open(cfg)
	if err != nil {
		return err
	}
	dev.EnableObservation(0)
	if err := dev.EnableSampling(opt.interval, 0); err != nil {
		return err
	}

	zones, factor := 8, int64(3)
	if opt.quick {
		zones, factor = 4, 1
	}
	w := workload.NewZoneBurst(dev, zones)
	total := int64(w.Zones()) * dev.ZoneBytes() * factor

	header(fmt.Sprintf("Virtual-time series: random %s writes over %d zones, %s total, sampled every %v",
		units.FormatBytes(workload.ZoneBurstBytes), w.Zones(), units.FormatBytes(total), opt.interval))
	for written := int64(0); written < total; written += workload.ZoneBurstBytes {
		if err := w.Step(); err != nil {
			return err
		}
	}
	if err := dev.Flush(); err != nil {
		return err
	}

	printSeries(dev)
	if opt.jsonl != "" {
		if err := exportSeries(opt.jsonl, dev.Series(), telemetry.WriteSeriesJSONL); err != nil {
			return err
		}
		fmt.Printf("wrote series (JSONL) to %s\n", opt.jsonl)
	}
	if opt.csv != "" {
		if err := exportSeries(opt.csv, dev.Series(), telemetry.WriteSeriesCSV); err != nil {
			return err
		}
		fmt.Printf("wrote series (CSV) to %s\n", opt.csv)
	}
	return nil
}

func exportSeries(path string, s []conzone.Sample, write func(w io.Writer, s []conzone.Sample) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return write(f, s)
}

// printSeries renders up to 24 evenly spaced samples of the retained
// series as a table: the WAF and GC activity curves over virtual time.
func printSeries(dev *conzone.Device) {
	series := dev.Series()
	recorded, dropped := dev.SamplesRecorded()
	fmt.Printf("samples: %d recorded, %d retained, %d overwritten\n\n", recorded, len(series), dropped)
	if len(series) == 0 {
		return
	}
	stride := (len(series) + 23) / 24
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "t(ms)\twritten\tWAF(int)\tWAF(cum)\tGC migr\tGC runs\tSLC valid\tSLC free\tbufd\tfree SB\topen")
	for i := 0; i < len(series); i += stride {
		s := series[i]
		o := s.Stats.Occupancy
		mark := ""
		if s.Discontinuity {
			mark = " *CUT*"
		}
		fmt.Fprintf(w, "%.1f%s\t%s\t%.3f\t%.3f\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			float64(s.At)/1e6, mark, units.FormatBytes(s.Delta.FTL.HostWrittenBytes),
			s.Delta.WAF, s.Stats.WAF,
			s.Delta.Staging.Migrated, s.Delta.Staging.Collections,
			o.SLCValidSectors, o.SLCFreeSuperblocks, o.BufferedSectors,
			o.FreeSuperblocks, o.OpenZones)
	}
	w.Flush()
}
