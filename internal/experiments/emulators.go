package experiments

import (
	"fmt"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/femu"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
	"github.com/conzone/conzone/internal/workload"
)

// EmulatorRow is one emulator personality's behaviour on the consumer
// acid-test workload: interleaved sub-unit writes to buffer-conflicting
// zones — the access pattern Table I's capability differences govern.
type EmulatorRow struct {
	Emulator string
	// WriteBW is bandwidth on the conflict workload.
	WriteBW float64
	// RandReadKIOPS on a prefilled zone.
	RandReadKIOPS float64
	// ModelsPrematureFlush is whether the emulator registered any
	// buffer-conflict eviction at all.
	ModelsPrematureFlush bool
	// ModelsSLC is whether any data took the heterogeneous-media path.
	ModelsSLC bool
	// ModelsL2PCache is whether L2P misses cost anything.
	ModelsL2PCache bool
}

// RunEmulatorComparison runs the four Table-I emulators over the same
// consumer workload, showing dynamically what the static capability matrix
// claims: only ConZone registers premature flushes, heterogeneous media
// and L2P cache effects.
func RunEmulatorComparison(cfg config.DeviceConfig, opt Options) ([]EmulatorRow, error) {
	var rows []EmulatorRow

	// models reports which of the three consumer behaviours the device
	// registered after the run; nil means it has nothing to register them
	// with (the FEMU lineage: no conflict machinery, heterogeneous media or
	// L2P cost model).
	run := func(name string, dev workload.Device, models func() (premature, slcPath, l2p bool)) error {
		zdev, ok := dev.(workload.Zoned)
		if !ok {
			return fmt.Errorf("%s is not zoned", name)
		}
		zoneBytes := zdev.ZoneCapSectors() * units.Sector
		wj := zoneWriteJob(zdev, min(opt.WriteBytes/4, zoneBytes), opt, 53, 1, 3)
		w, err := workload.Run(dev, wj)
		if err != nil {
			return fmt.Errorf("%s write: %w", name, err)
		}
		// Read back what zone 1 holds.
		r, err := workload.Run(dev, randJob(zoneBytes, units.AlignDown(wj.TotalBytesPerJob, randBS),
			min(opt.RandReadOps, 4096), opt, 59, sim.Time(0).Add(w.Elapsed)))
		if err != nil {
			return fmt.Errorf("%s read: %w", name, err)
		}
		row := EmulatorRow{Emulator: name, WriteBW: w.BandwidthMiBps, RandReadKIOPS: r.KIOPS()}
		if models != nil {
			row.ModelsPrematureFlush, row.ModelsSLC, row.ModelsL2PCache = models()
		}
		rows = append(rows, row)
		return nil
	}

	cz, err := cfg.NewConZone()
	if err != nil {
		return nil, err
	}
	if err := run("ConZone", cz, func() (bool, bool, bool) {
		return cz.Stats().PrematureFlushes > 0, cz.Stats().StagedSectors > 0, cz.Cache().Stats().Misses > 0
	}); err != nil {
		return nil, err
	}

	for _, c := range []struct {
		name  string
		build func() (*femu.Device, error)
	}{{"FEMU", cfg.NewFEMU}, {"ConfZNS", cfg.NewConfZNS}} {
		dev, err := c.build()
		if err != nil {
			return nil, err
		}
		if err := run(c.name, dev, nil); err != nil {
			return nil, err
		}
	}
	return rows, nil
}
