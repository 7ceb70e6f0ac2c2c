package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"text/tabwriter"
	"time"

	"github.com/conzone/conzone"
	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/telemetry"
	"github.com/conzone/conzone/internal/units"
)

// tsOptions bundles the -timeseries / -serve flag values.
type tsOptions struct {
	serve    string        // listen address; "" = run once and exit
	jsonl    string        // write the series as JSON Lines here
	csv      string        // write the series as CSV here
	interval time.Duration // virtual sample interval
	quick    bool
}

// randomWriter drives sustained random writes through the public Device
// API: each step picks a pseudo-random zone from a working set and appends
// one sub-programming-unit burst at its write pointer, resetting the zone
// once full. Sub-PU bursts detour through SLC staging, zone alternation
// evicts write buffers prematurely, and resets invalidate staged data — so
// a long run exercises exactly the machinery (staging fill, GC migration,
// WAF climb) the virtual-time series is meant to expose.
type randomWriter struct {
	dev   *conzone.Device
	zones []int   // working set
	offs  []int64 // next write offset per working-set zone
	buf   []byte
	rng   *sim.Rand
}

// tsWriteBytes is the per-step burst size: 48 KiB, the paper's Fig. 6(b)
// write size, deliberately smaller than the 96 KiB programming unit.
const tsWriteBytes = 48 << 10

func newRandomWriter(dev *conzone.Device, numZones int) *randomWriter {
	w := &randomWriter{
		dev: dev,
		buf: make([]byte, tsWriteBytes),
		rng: sim.NewRand(0),
	}
	// Use zones from the upper half of the LBA space, clear of any
	// conventional zones at the front. An even count keeps both write
	// buffers (zone mod 2) in play.
	base := dev.NumZones() / 2
	for z := base; z < base+numZones && z < dev.NumZones(); z++ {
		w.zones = append(w.zones, z)
		w.offs = append(w.offs, 0)
	}
	return w
}

// step performs one random-zone write, resetting the zone when full.
func (w *randomWriter) step() error {
	i := int(w.rng.Uint64() % uint64(len(w.zones)))
	zb := w.dev.ZoneBytes()
	if w.offs[i]+tsWriteBytes > zb {
		if err := w.dev.ResetZone(w.zones[i]); err != nil {
			return err
		}
		w.offs[i] = 0
	}
	if err := w.dev.Write(int64(w.zones[i])*zb+w.offs[i], w.buf); err != nil {
		return err
	}
	w.offs[i] += tsWriteBytes
	return nil
}

// run writes total bytes, stepping burst by burst.
func (w *randomWriter) run(total int64) error {
	for written := int64(0); written < total; written += tsWriteBytes {
		if err := w.step(); err != nil {
			return err
		}
	}
	return nil
}

// runTimeseries is the -timeseries mode: sample a sustained random-write
// workload on the virtual clock, print the series, optionally export it
// and optionally serve the live endpoint.
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
	w := newRandomWriter(dev, zones)
	total := int64(len(w.zones)) * dev.ZoneBytes() * factor

	var srvErr chan error
	if opt.serve != "" {
		// Bind before starting the workload so a scraper (CI) can connect
		// immediately; the endpoint serves live snapshots while the
		// workload still runs.
		ln, err := net.Listen("tcp", opt.serve)
		if err != nil {
			return err
		}
		fmt.Printf("serving observability endpoint on http://%s/ (metrics, timeseries.json, zones.json, debug/pprof)\n",
			ln.Addr())
		srvErr = make(chan error, 1)
		go func() { srvErr <- http.Serve(ln, dev.ObservabilityHandler()) }()
	}

	header(fmt.Sprintf("Virtual-time series: random %s writes over %d zones, %s total, sampled every %v",
		units.FormatBytes(tsWriteBytes), len(w.zones), units.FormatBytes(total), opt.interval))
	if err := w.run(total); err != nil {
		return err
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

	if opt.serve != "" {
		fmt.Println("workload finished; endpoint stays up — interrupt to exit")
		return <-srvErr
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
