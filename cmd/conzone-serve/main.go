// Command conzone-serve runs an emulated ConZone device behind a live
// observability endpoint:
//
//	conzone-serve [-addr :9090] [-config file.json] [-image nand.img]
//	              [-sample-interval 5ms] [-ring 4096] [-idle]
//
// Endpoints:
//
//	/metrics          Prometheus text exposition: the unified device
//	                  snapshot (every subsystem's counters, fault and
//	                  power-loss totals, occupancy gauges), per-stage
//	                  latency summaries and per-zone heat gauges
//	/timeseries.json  the virtual-time sample series
//	/zones.json       per-zone / per-SLC-superblock heat table
//	/zones.txt        textual heatmaps
//	/debug/pprof/     live Go profiles of the serve process
//
// By default the device continuously runs a sustained random-write
// workload on its virtual clock, so every scrape shows moving curves;
// -idle serves a quiescent device instead (useful with -image to inspect
// a saved NAND state).
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"github.com/conzone/conzone"
	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/workload"
)

func main() {
	ln, h, err := listen(os.Args[1:], os.Stdout)
	if err == nil {
		err = http.Serve(ln, h)
	}
	fmt.Fprintln(os.Stderr, "conzone-serve:", err)
	os.Exit(1)
}

// listen is main up to http.Serve; without -idle it starts the workload.
func listen(args []string, stdout io.Writer) (net.Listener, http.Handler, error) {
	fs := flag.NewFlagSet("conzone-serve", flag.ExitOnError)
	addr := fs.String("addr", ":9090", "listen address")
	cfgPath := fs.String("config", "", "device configuration JSON (default: the paper's §IV-A setup)")
	image := fs.String("image", "", "open this NAND image (conzone-inspect/SaveImage format) instead of a fresh device")
	interval := fs.Duration("sample-interval", 5*time.Millisecond, "virtual-time sample interval")
	ring := fs.Int("ring", 0, "sample ring size (<= 0: default 4096)")
	idle := fs.Bool("idle", false, "serve a quiescent device instead of driving a background workload")
	_ = fs.Parse(args) // flag.ExitOnError: a bad command line exits in Parse

	cfg := config.Paper()
	var err error
	if *cfgPath != "" {
		if cfg, err = config.Load(*cfgPath); err != nil {
			return nil, nil, err
		}
	}
	open := conzone.Open
	if *image != "" {
		open = func(cfg conzone.Config) (*conzone.Device, error) { return conzone.OpenImage(cfg, *image) }
	}
	dev, err := open(cfg)
	if err != nil {
		return nil, nil, err
	}
	dev.EnableObservation(0)
	if err := dev.EnableSampling(*interval, *ring); err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(stdout, "conzone-serve: http://%s/ (device: %d zones x %d MiB, sampling every %v of virtual time)\n",
		ln.Addr(), dev.NumZones(), dev.ZoneBytes()>>20, *interval)
	if !*idle {
		go drive(dev)
	}
	return ln, dev.ObservabilityHandler(), nil
}

// drive runs the sustained random-write workload forever; scrapes interleave
// with it under the Device's lock. A write failure (say, the device degrading
// to read-only) stops the workload, not the endpoint.
func drive(dev *conzone.Device) {
	w := workload.NewZoneBurst(dev, 8)
	for {
		if err := w.Step(); err != nil {
			fmt.Fprintln(os.Stderr, "conzone-serve: workload stopped:", err)
			return
		}
		// Throttle to ~2000 bursts/s of wall time: the virtual clock still
		// outruns it by orders of magnitude, and the process stays polite.
		time.Sleep(500 * time.Microsecond)
	}
}
