// Command conzone-fio runs fio-style micro-benchmarks against one of the
// emulated devices (ConZone, Legacy, or the FEMU personality) and prints a
// summary with virtual-time bandwidth, IOPS and latency percentiles.
//
// Example:
//
//	conzone-fio -device conzone -rw randread -bs 4k -range 1g -size 64m -prefill
//	conzone-fio -device legacy -rw write -bs 512k -numjobs 4 -size 256m
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/units"
	"github.com/conzone/conzone/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, errFlags) {
			fmt.Fprintln(os.Stderr, "conzone-fio:", err)
		}
		os.Exit(1)
	}
}

// errFlags is a command line the flag package refused and has already
// reported on stderr.
var errFlags = errors.New("bad command line")

// run is main with its arguments and streams as values.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("conzone-fio", flag.ContinueOnError)
	fs.SetOutput(stderr)
	device := fs.String("device", "conzone", "device model: conzone, legacy, femu, confzns")
	rw := fs.String("rw", "read", "pattern: read, write, randread, randwrite")
	bs := fs.String("bs", "4k", "block size")
	numjobs := fs.Int("numjobs", 1, "virtual threads")
	offset := fs.String("offset", "0", "region start")
	rng := fs.String("range", "", "region size (default: whole device)")
	size := fs.String("size", "64m", "I/O volume per thread")
	prefill := fs.Bool("prefill", false, "sequentially fill the region before the job")
	overhead := fs.Duration("overhead", 6*time.Microsecond, "host-side per-op cost")
	seed := fs.Uint64("seed", 1, "random seed")
	cfgPath := fs.String("config", "", "device configuration JSON")
	quickCfg := fs.Bool("small", false, "use the scaled-down Small configuration")
	if err := fs.Parse(args); err != nil {
		return errFlags
	}

	cfg := config.Paper()
	if *quickCfg {
		cfg = config.Small()
	}
	if *cfgPath != "" {
		var err error
		cfg, err = config.Load(*cfgPath)
		if err != nil {
			return err
		}
	}

	// conventional is how many leading zones accept writes at any offset;
	// it is read only when the device is zoned.
	var dev workload.Device
	var err error
	conventional := 0
	switch *device {
	case "conzone":
		dev, err = cfg.NewConZone()
		conventional = cfg.FTL.ConventionalZones
	case "legacy":
		dev, err = cfg.NewLegacy()
	case "femu":
		dev, err = cfg.NewFEMU()
	case "confzns":
		dev, err = cfg.NewConfZNS()
	default:
		err = fmt.Errorf("unknown device %q", *device)
	}
	if err != nil {
		return err
	}

	pattern, err := parsePattern(*rw)
	if err != nil {
		return err
	}
	bsB, err := units.ParseBytes(*bs)
	if err != nil {
		return fmt.Errorf("bs: %w", err)
	}
	offB, err := units.ParseBytes(*offset)
	if err != nil {
		return fmt.Errorf("offset: %w", err)
	}
	capBytes := dev.TotalSectors() * units.Sector
	rngB := capBytes - offB
	if *rng != "" {
		rngB, err = units.ParseBytes(*rng)
		if err != nil {
			return fmt.Errorf("range: %w", err)
		}
	}
	sizeB, err := units.ParseBytes(*size)
	if err != nil {
		return fmt.Errorf("size: %w", err)
	}
	sizeB = units.AlignUp(sizeB, bsB)
	if zd, ok := dev.(workload.Zoned); ok && pattern == workload.RandWrite {
		if z := firstSequentialZone(zd, conventional, offB, rngB); z >= 0 {
			return fmt.Errorf("%s: randwrite region [%s,+%s) touches sequential zone %d, where a random write does not begin at the write pointer (the device has %d conventional zones)",
				*device, units.FormatBytes(offB), units.FormatBytes(rngB), z, conventional)
		}
	}

	job := workload.Job{
		Name:             fmt.Sprintf("%s-%s", *device, *rw),
		Pattern:          pattern,
		BlockBytes:       bsB,
		NumJobs:          *numjobs,
		OffsetBytes:      offB,
		RangeBytes:       rngB,
		TotalBytesPerJob: sizeB,
		PerOpOverhead:    *overhead,
		FlushAtEnd:       pattern.IsWrite(),
		Seed:             *seed,
	}

	if *prefill {
		fmt.Fprintf(stderr, "prefilling [%s, +%s)...\n", units.FormatBytes(offB), units.FormatBytes(rngB))
		done, err := workload.Prefill(dev, 0, offB, rngB, false)
		if err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
		job.StartAt = done
	}

	res, err := workload.Run(dev, job)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: bs=%s jobs=%d region=[%s,+%s) volume=%s/thread\n",
		job.Name, units.FormatBytes(bsB), *numjobs, units.FormatBytes(offB),
		units.FormatBytes(rngB), units.FormatBytes(sizeB))
	fmt.Fprintf(stdout, "  bw=%.1f MiB/s  iops=%.0f (%.1f KIOPS)  elapsed=%v (virtual)\n",
		res.BandwidthMiBps, res.IOPS, res.KIOPS(), res.Elapsed.Round(time.Microsecond))
	fmt.Fprintf(stdout, "  lat: %v\n", res.Lat)
	return nil
}

// firstSequentialZone returns the first zone at or after the conventional
// ones that the byte region [off, off+n) touches, or -1 when the region
// stays inside the conventional zones.
func firstSequentialZone(dev workload.Zoned, conventional int, off, n int64) int {
	zoneBytes := dev.ZoneCapSectors() * units.Sector
	first, last := int(off/zoneBytes), int((off+n-1)/zoneBytes)
	if first < conventional {
		first = conventional
	}
	if n <= 0 || first > last || first >= dev.NumZones() {
		return -1
	}
	return first
}

func parsePattern(s string) (workload.Pattern, error) {
	switch s {
	case "read":
		return workload.SeqRead, nil
	case "write":
		return workload.SeqWrite, nil
	case "randread":
		return workload.RandRead, nil
	case "randwrite":
		return workload.RandWrite, nil
	}
	return 0, fmt.Errorf("unknown rw %q", s)
}
