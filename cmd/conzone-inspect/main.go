// Command conzone-inspect prints the geometry, derived layout, and zone
// report of a device configuration, and can write configuration templates.
//
// Usage:
//
//	conzone-inspect                      # describe the paper configuration
//	conzone-inspect -config my.json      # describe a saved configuration
//	conzone-inspect -write-config my.json -preset qlc
//	conzone-inspect -config my.json -write-config copy.json
//	conzone-inspect -image dev.img        # recover a saved NAND image and
//	                                      # print its zones, journal and wear
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"github.com/conzone/conzone"
	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/fault"
	"github.com/conzone/conzone/internal/nand"
	"github.com/conzone/conzone/internal/telemetry"
	"github.com/conzone/conzone/internal/units"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, errFlags) {
			fmt.Fprintln(os.Stderr, "conzone-inspect:", err)
		}
		os.Exit(1)
	}
}

// presets are the configurations -preset names.
var presets = map[string]func() config.DeviceConfig{"paper": config.Paper, "small": config.Small, "qlc": config.QLC}

// errFlags is a command line the flag package refused and reported on stderr.
var errFlags = errors.New("bad command line")

// run is main with its arguments and streams as values.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("conzone-inspect", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfgPath := fs.String("config", "", "device configuration JSON to describe")
	writeCfg := fs.String("write-config", "", "write the configuration (-config, else -preset) to this path and exit")
	preset := fs.String("preset", "paper", "template preset: paper, small, qlc")
	zones := fs.Bool("zones", false, "print the full zone report")
	image := fs.String("image", "", "recover a NAND image saved with SaveImage and describe what survived")
	if err := fs.Parse(args); err != nil {
		return errFlags
	}

	newCfg, ok := presets[*preset]
	if !ok {
		return fmt.Errorf("unknown preset %q", *preset)
	}
	cfg, source := newCfg(), *preset+" preset"
	if *cfgPath != "" {
		var err error
		if cfg, err = config.Load(*cfgPath); err != nil {
			return err
		}
		source = "configuration " + *cfgPath
	}
	if *writeCfg != "" {
		if err := cfg.Save(*writeCfg); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s to %s\n", source, *writeCfg)
		return nil
	}
	if *image != "" {
		return inspectImage(stdout, cfg, *image, *zones)
	}
	return describe(stdout, cfg, *zones)
}

// describe prints the configuration's geometry and derived layout, and with
// zones set the zone report and heatmaps of a fresh device.
func describe(stdout io.Writer, cfg config.DeviceConfig, zones bool) error {
	f, err := cfg.NewConZone()
	if err != nil {
		return err
	}
	g := cfg.Geometry
	fmt.Fprintln(stdout, "Geometry:", g)
	fmt.Fprintln(stdout, "FTL:     ", f.Describe())

	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "logical capacity\t%s\n", units.FormatBytes(f.TotalSectors()*units.Sector))
	fmt.Fprintf(w, "zones\t%d x %s\n", f.NumZones(), units.FormatBytes(f.ZoneCapSectors()*units.Sector))
	fmt.Fprintf(w, "superblock\t%s (%d program units)\n",
		units.FormatBytes(g.SuperblockBytes()), g.PUsPerBlock()*g.Chips())
	fmt.Fprintf(w, "superpage / write buffer\t%s x %d buffers\n",
		units.FormatBytes(g.SuperpageBytes()), cfg.FTL.NumWriteBuffers)
	fmt.Fprintf(w, "alignment tail per zone\t%s (in reserved SLC)\n",
		units.FormatBytes((f.ZoneCapSectors()-g.SuperblockBytes()/units.Sector)*units.Sector))
	fmt.Fprintf(w, "SLC staging\t%d superblocks, %s\n",
		f.Staging().SuperblockCount(),
		units.FormatBytes(f.Staging().TotalSectors()*units.Sector))
	fmt.Fprintf(w, "L2P cache\t%s (%d entries of %dB), %s search\n",
		units.FormatBytes(cfg.FTL.L2PCacheBytes), f.Cache().MaxEntries(),
		cfg.FTL.L2PEntryBytes, cfg.FTL.Search)
	fmt.Fprintf(w, "aggregation chunk\t%s\n", units.FormatBytes(cfg.FTL.ChunkSectors*units.Sector))
	fmt.Fprintf(w, "latencies\tSLC %v/%v, TLC %v/%v, QLC %v/%v (prog/read)\n",
		cfg.Latency.SLC.Program, cfg.Latency.SLC.Read,
		cfg.Latency.TLC.Program, cfg.Latency.TLC.Read,
		cfg.Latency.QLC.Program, cfg.Latency.QLC.Read)
	fmt.Fprintf(w, "spare superblocks\t%d (bad-block replacement pool)\n", f.SpareSuperblocks())
	if fc := cfg.FTL.Faults; fc != nil {
		rr := fc.ReadRetryRounds
		if rr == 0 {
			rr = fault.DefaultReadRetryRounds
		}
		fmt.Fprintf(w, "fault injection\tseed %d, %d scripted faults, %d ECC retry rounds\n",
			fc.Seed, len(fc.Scripts), rr)
		fmt.Fprintf(w, "fault rates (prog/erase/read)\tSLC %g/%g/%g, TLC %g/%g/%g, QLC %g/%g/%g\n",
			fc.SLC.ProgramFail, fc.SLC.EraseFail, fc.SLC.ReadFail,
			fc.TLC.ProgramFail, fc.TLC.EraseFail, fc.TLC.ReadFail,
			fc.QLC.ProgramFail, fc.QLC.EraseFail, fc.QLC.ReadFail)
	} else {
		fmt.Fprintf(w, "fault injection\tdisabled\n")
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if !zones {
		return nil
	}

	fmt.Fprintln(stdout, "\nZone report:")
	zw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(zw, "zone\tstart LBA\tcap (sectors)\tWP\tstate")
	for _, z := range f.Zones().Report() {
		fmt.Fprintf(zw, "%d\t%d\t%d\t%d\t%v\n", z.ID, z.Start, z.Capacity, z.WP, z.State)
	}
	if err := zw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(stdout)
	return telemetry.CollectZones(f, 0).WriteHeatmap(stdout)
}

// inspectImage recovers a file-backed NAND image exactly as a crashed
// device's mount path would and reports the durable state that survived:
// zone write pointers, the metadata journal, wear and the bad-block table.
// With zones set it also renders the recovered state's textual heatmaps.
func inspectImage(stdout io.Writer, cfg config.DeviceConfig, path string, zones bool) error {
	dev, err := conzone.OpenImage(cfg, path)
	if err != nil {
		return err
	}
	f := dev.FTL()
	arr := f.Array()
	fmt.Fprintf(stdout, "Image %s: recovered cleanly\n\n", path)

	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	c := arr.Counters()
	fmt.Fprintf(w, "media programs\t%d PU, %d SLC page, %d SLC partial, %d map\n",
		c.PUPrograms, c.PageProgramsSLC, c.PartialPrograms, c.MapPrograms)
	fmt.Fprintf(w, "media erases\t%d (total wear %d)\n", c.Erases, arr.TotalEraseCount())
	fmt.Fprintf(w, "bytes programmed\t%s\n", units.FormatBytes(c.BytesProgrammed))
	st := f.Stats()
	fmt.Fprintf(w, "retired superblocks\t%d (spares left: %d)\n", st.RetiredSuperblocks, f.SpareSuperblocks())
	fmt.Fprintf(w, "grown bad blocks\t%d\n", len(f.BadBlockTable()))

	// One writer serves every section: a line without a tab ends the
	// column blocks above it, so each section aligns on its own.
	fmt.Fprintln(w, "\nRecovered zones (non-empty):\nzone\tstart LBA\twritten (sectors)\tstate")
	written := 0
	for _, z := range f.Zones().Report() {
		if z.Written() == 0 {
			continue
		}
		written++
		fmt.Fprintf(w, "%d\t%d\t%d\t%v\n", z.ID, z.Start, z.Written(), z.State)
	}
	if written == 0 {
		fmt.Fprintln(w, "  (none)")
	}

	j := arr.MetaJournal()
	fmt.Fprintf(w, "\nMetadata journal: %d records\n", len(j))
	for i, rec := range j {
		switch rec.Kind {
		case nand.MetaZoneReset:
			fmt.Fprintf(w, "%d\t%v\tzone %d\tseq %d\n", i, rec.Kind, rec.Zone, rec.Seq)
		case nand.MetaRetireSB:
			fmt.Fprintf(w, "%d\t%v\tsuperblock %d\tchip %d block %d op %d\n",
				i, rec.Kind, rec.SB, rec.Chip, rec.Block, rec.Op)
		case nand.MetaSLCRetire:
			fmt.Fprintf(w, "%d\t%v\tstaging superblock %d\n", i, rec.Kind, rec.SB)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if zones {
		fmt.Fprintln(stdout)
		return dev.Heatmap().WriteHeatmap(stdout)
	}
	return nil
}
