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
	"net"
	"net/http"
	"os"
	"time"

	"github.com/conzone/conzone"
	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/workload"
)

func main() {
	addr := flag.String("addr", ":9090", "listen address")
	cfgPath := flag.String("config", "", "device configuration JSON (default: the paper's §IV-A setup)")
	image := flag.String("image", "", "open this NAND image (conzone-inspect/SaveImage format) instead of a fresh device")
	interval := flag.Duration("sample-interval", 5*time.Millisecond, "virtual-time sample interval")
	ring := flag.Int("ring", 0, "sample ring size (<= 0: default 4096)")
	idle := flag.Bool("idle", false, "serve a quiescent device instead of driving a background workload")
	flag.Parse()

	cfg := config.Paper()
	if *cfgPath != "" {
		var err error
		cfg, err = config.Load(*cfgPath)
		if err != nil {
			fatal(err)
		}
	}

	var dev *conzone.Device
	var err error
	if *image != "" {
		dev, err = conzone.OpenImage(cfg, *image)
	} else {
		dev, err = conzone.Open(cfg)
	}
	if err != nil {
		fatal(err)
	}
	dev.EnableObservation(0)
	if err := dev.EnableSampling(*interval, *ring); err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("conzone-serve: http://%s/ (device: %d zones x %d MiB, sampling every %v of virtual time)\n",
		ln.Addr(), dev.NumZones(), dev.ZoneBytes()>>20, *interval)

	if !*idle {
		go drive(dev)
	}
	fatal(http.Serve(ln, dev.ObservabilityHandler()))
}

// drive runs the sustained random-write workload forever. Device methods
// lock internally, so scrapes interleave safely with the drive loop; a write
// failure (e.g. the device degrading to read-only) stops the workload but
// not the endpoint.
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "conzone-serve:", err)
	os.Exit(1)
}
