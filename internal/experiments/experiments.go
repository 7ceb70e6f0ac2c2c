// Package experiments regenerates every table and figure of the ConZone
// paper's evaluation (§IV) against the device models in this module. Each
// RunFigXX function builds fresh devices from a configuration, drives them
// with the paper's workload, and returns structured rows that the bench
// harness and the conzone-bench tool print; Claims from internal/refdata
// describe what shape the paper reports.
package experiments

import (
	"fmt"
	"time"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/units"
)

// Options scales the experiment workloads. Defaults reproduce the paper's
// proportions; the Quick preset shrinks volumes for CI-speed runs.
type Options struct {
	// WriteBytes is the per-thread volume of sequential-write jobs.
	WriteBytes int64
	// ReadRegion is the prefilled region sequential-read jobs scan.
	ReadRegion int64
	// ReadBytes is the per-thread volume of sequential-read jobs.
	ReadBytes int64
	// RandReadOps is the measured operation count of random-read jobs.
	RandReadOps int64
	// WarmupOps is the unmeasured random-read warm-up operation count.
	WarmupOps int64
	// PerOpOverhead models host-side submission cost (syscall + memcpy).
	PerOpOverhead time.Duration
	// ReadOverhead is the host-side cost per small read, which dominates
	// the gap between raw flash latency and end-to-end KIOPS.
	ReadOverhead time.Duration
}

// Default returns paper-scale options.
func Default() Options {
	return Options{
		WriteBytes:    256 * units.MiB,
		ReadRegion:    512 * units.MiB,
		ReadBytes:     256 * units.MiB,
		RandReadOps:   16384,
		WarmupOps:     8192,
		PerOpOverhead: 6 * time.Microsecond,
		ReadOverhead:  15 * time.Microsecond,
	}
}

// Quick returns reduced volumes for fast test runs.
func Quick() Options {
	o := Default()
	o.WriteBytes = 48 * units.MiB
	o.ReadRegion = 128 * units.MiB
	o.ReadBytes = 48 * units.MiB
	o.RandReadOps = 4096
	o.WarmupOps = 4096
	return o
}

// Reduced reports whether o asks for less than paper scale. The
// characterizations beside the paper's figures (qd, faults, crash, zonelife)
// have two sizes, not a volume per field, and pick by it.
func (o Options) Reduced() bool { return o.RandReadOps < Default().RandReadOps }

// seqBS is the paper's sequential I/O block size (§IV-B: 512 KiB).
const seqBS = 512 * units.KiB

// randBS is the paper's random-read block size (§IV-D: 4 KiB).
const randBS = 4 * units.KiB

// fitRegion clamps a byte region to the device capacity implied by cfg,
// rounded down to a zone multiple.
func fitRegion(cfg config.DeviceConfig, want int64) (int64, error) {
	f, err := cfg.NewConZone()
	if err != nil {
		return 0, err
	}
	zoneBytes := f.ZoneCapSectors() * units.Sector
	capBytes := f.TotalSectors() * units.Sector
	region := units.AlignDown(want, zoneBytes)
	if region > capBytes {
		region = units.AlignDown(capBytes, zoneBytes)
	}
	if region <= 0 {
		return 0, fmt.Errorf("experiments: region %d does not fit device of %d", want, capBytes)
	}
	return region, nil
}
