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
		vol := units.AlignDown(min64(opt.WriteBytes/4, zoneBytes), 48*units.KiB)
		w, err := workload.Run(dev, workload.Job{
			Name: name + "-conflict", Pattern: workload.SeqWrite,
			BlockBytes: 48 * units.KiB, NumJobs: 2,
			RangeBytes:       int64(zdev.NumZones()) * zoneBytes,
			ThreadOffsets:    []int64{1 * zoneBytes, 3 * zoneBytes},
			TotalBytesPerJob: vol,
			PerOpOverhead:    opt.PerOpOverhead,
			FlushAtEnd:       true, Seed: 53,
		})
		if err != nil {
			return fmt.Errorf("%s write: %w", name, err)
		}
		r, err := workload.Run(dev, workload.Job{
			Name: name + "-randread", Pattern: workload.RandRead,
			BlockBytes: randBS, NumJobs: 1,
			OffsetBytes:      1 * zoneBytes,
			RangeBytes:       units.AlignDown(vol, randBS),
			TotalBytesPerJob: min64(opt.RandReadOps, 4096) * randBS,
			PerOpOverhead:    opt.ReadOverhead,
			Seed:             59,
			StartAt:          sim.Time(0).Add(w.Elapsed),
		})
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
