// Command conzone-trace records, converts and replays I/O traces against
// the emulated devices.
//
// Usage:
//
//	conzone-trace -gen seqwrite -out trace.bin            # synthesise a trace
//	conzone-trace -replay trace.bin -device conzone       # replay it
//	conzone-trace -replay trace.bin -observe              # replay + telemetry
//	conzone-trace -convert trace.bin -out trace.txt       # binary -> text
//	conzone-trace -convert trace.txt -out trace.bin       # text -> binary
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/ftl"
	"github.com/conzone/conzone/internal/obs"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/trace"
	"github.com/conzone/conzone/internal/units"
	"github.com/conzone/conzone/internal/workload"
)

func main() {
	gen := flag.String("gen", "", "synthesise a trace: seqwrite, randread, mixed")
	genOps := flag.Int("ops", 1000, "operations for -gen")
	replay := flag.String("replay", "", "trace file to replay")
	device := flag.String("device", "conzone", "device for -replay: conzone, legacy, femu")
	convert := flag.String("convert", "", "trace file to convert (binary<->text by extension)")
	out := flag.String("out", "", "output file for -gen/-convert")
	small := flag.Bool("small", false, "use the Small configuration")
	observe := flag.Bool("observe", false, "with -replay on the conzone device: record lifecycle spans and print per-stage metrics")
	chromeOut := flag.String("chrome", "", "with -observe: write the simulated timeline as a Chrome Trace Event file")
	flag.Parse()

	cfg := config.Paper()
	if *small {
		cfg = config.Small()
	}

	switch {
	case *gen != "":
		if *out == "" {
			fatal(errors.New("-gen requires -out"))
		}
		if err := generate(cfg, *gen, *genOps, *out); err != nil {
			fatal(err)
		}
	case *replay != "":
		if err := doReplay(os.Stdout, cfg, *replay, *device, *observe, *chromeOut); err != nil {
			fatal(err)
		}
	case *convert != "":
		if *out == "" {
			fatal(errors.New("-convert requires -out"))
		}
		if err := doConvert(*convert, *out); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "conzone-trace:", err)
	os.Exit(1)
}

// generate synthesises a simple trace of the named shape.
func generate(cfg config.DeviceConfig, kind string, ops int, path string) error {
	f, err := cfg.NewConZone()
	if err != nil {
		return err
	}
	zc := f.ZoneCapSectors()
	var recs []trace.Record
	at := time.Duration(0)
	switch kind {
	case "seqwrite":
		lba := int64(0)
		for i := 0; i < ops; i++ {
			n := int64(24)
			if lba%zc+n > zc {
				lba = (lba/zc + 1) * zc
			}
			recs = append(recs, trace.Record{At: at, Op: trace.OpWrite, LBA: lba, Sectors: n})
			lba += n
			at += 50 * time.Microsecond
		}
	case "randread":
		// Prefill one zone, then read it randomly.
		recs = append(recs, trace.Record{At: 0, Op: trace.OpWrite, LBA: 0, Sectors: zc})
		recs = append(recs, trace.Record{At: 0, Op: trace.OpFlush})
		rng := sim.NewRand(0)
		for i := 0; i < ops; i++ {
			lba := int64(rng.Uint64()) % zc
			if lba < 0 {
				lba = -lba
			}
			recs = append(recs, trace.Record{At: at, Op: trace.OpRead, LBA: lba, Sectors: 1})
			at += 40 * time.Microsecond
		}
	case "mixed":
		for i := 0; i < ops; i++ {
			zone := int32(i % 4)
			base := int64(zone) * zc
			off := int64(i/4*24) % (zc - 24)
			if off == 0 && i >= 4 {
				recs = append(recs, trace.Record{At: at, Op: trace.OpReset, Zone: zone})
				at += 10 * time.Microsecond
			}
			recs = append(recs, trace.Record{At: at, Op: trace.OpWrite, LBA: base + off, Sectors: 24})
			at += 60 * time.Microsecond
		}
	default:
		return fmt.Errorf("unknown generator %q", kind)
	}
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer out.Close()
	w := trace.NewWriter(out)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("wrote %d records to %s\n", len(recs), path)
	return nil
}

// doReplay replays a trace file on the named device and writes the replay
// summary to w; with observe, the FTL's telemetry follows as Prometheus
// text exposition.
func doReplay(w io.Writer, cfg config.DeviceConfig, path, device string, observe bool, chromePath string) error {
	recs, err := readTrace(path)
	if err != nil {
		return err
	}
	if observe && device != "conzone" {
		return fmt.Errorf("-observe is only supported by the conzone device, not %q", device)
	}
	var dev workload.Device
	var observed *ftl.FTL
	switch device {
	case "conzone":
		f, e := cfg.NewConZone()
		if e != nil {
			return e
		}
		if observe {
			f.SetRecorder(obs.NewRecorder(0))
			observed = f
		}
		dev = f
	case "legacy":
		dev, err = cfg.NewLegacy()
	case "femu":
		dev, err = cfg.NewFEMU()
	default:
		err = fmt.Errorf("unknown device %q", device)
	}
	if err != nil {
		return err
	}
	res, err := trace.Replay(dev, recs)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "replayed %d records on %s: %d reads (%s), %d writes (%s), %d resets, %d flushes\n",
		res.Records, device, res.ReadOps, units.FormatBytes(res.ReadBytes),
		res.WriteOps, units.FormatBytes(res.WriteB), res.Resets, res.Flushes)
	fmt.Fprintf(w, "virtual completion time: %v\n", time.Duration(res.LastDone))
	if observed != nil {
		tel := observed.Telemetry()
		fmt.Fprintln(w)
		if err := obs.WriteExposition(w, tel.Expose); err != nil {
			return err
		}
		if chromePath != "" {
			tel.Events = observed.Recorder().Events()
			o, err := os.Create(chromePath)
			if err != nil {
				return err
			}
			defer o.Close()
			if err := tel.WriteChromeTrace(o); err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote Chrome trace (%d events) to %s — open via chrome://tracing or https://ui.perfetto.dev\n",
				len(tel.Events), chromePath)
		}
	}
	return nil
}

func doConvert(in, out string) error {
	recs, err := readTrace(in)
	if err != nil {
		return err
	}
	o, err := os.Create(out)
	if err != nil {
		return err
	}
	defer o.Close()
	if strings.HasSuffix(out, ".txt") {
		if err := trace.EncodeText(o, recs); err != nil {
			return err
		}
	} else {
		w := trace.NewWriter(o)
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				return err
			}
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	fmt.Printf("converted %d records: %s -> %s\n", len(recs), in, out)
	return nil
}

// readTrace loads either format, picking by extension with a binary
// fallback.
func readTrace(path string) ([]trace.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".txt") {
		return trace.DecodeText(f)
	}
	return trace.NewReader(f).ReadAll()
}
