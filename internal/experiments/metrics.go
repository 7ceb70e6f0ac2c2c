package experiments

import (
	"fmt"
	"io"
	"strings"

	"github.com/conzone/conzone"
	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/obs"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
)

// runMetrics drives an instrumented workload through the public Device API:
// conflicting dual-zone 48 KiB writes (premature flushes, SLC staging,
// combines), a flush, cold-cache random reads (map fetches, data reads) and
// a zone reset. Per-phase interval counters come from Stats.Delta; under
// them the telemetry snapshot is printed as Prometheus text exposition, and
// is also offered as JSON and as a Chrome Trace Event file.
func runMetrics(cfg config.DeviceConfig, _ Options) (Report, error) {
	var none Report
	dev, err := conzone.Open(cfg)
	if err != nil {
		return none, err
	}
	dev.EnableObservation(0)

	const (
		ioBytes = 48 << 10 // the paper's Fig. 6(b) write size
		rounds  = 48
	)
	zb := dev.ZoneBytes()
	if int64(rounds)*ioBytes > zb {
		return none, fmt.Errorf("zone capacity %d too small for the metrics workload", zb)
	}
	buf := make([]byte, ioBytes)

	var lines []string
	snap := dev.Stats()
	phase := func(name string) {
		now := dev.Stats()
		d := now.Delta(snap)
		lines = append(lines, fmt.Sprintf("%-22s host %8s  premature %3d  staged %5d  combines %3d  map fetches %4d  WAF %.3f",
			name, units.FormatBytes(d.FTL.HostWrittenBytes+d.FTL.HostReadBytes),
			d.FTL.PrematureFlushes, d.FTL.StagedSectors, d.FTL.Combines, d.FTL.MapFetches, d.WAF))
		snap = now
	}

	// Zones 1 and 3 share a write buffer (zone mod 2): every alternation
	// evicts the other zone's partial data prematurely.
	for i := 0; i < rounds; i++ {
		off := int64(i) * ioBytes
		if err := dev.Write(1*zb+off, buf); err != nil {
			return none, err
		}
		if err := dev.Write(3*zb+off, buf); err != nil {
			return none, err
		}
	}
	phase("conflicting writes")
	if err := dev.Flush(); err != nil {
		return none, err
	}
	phase("flush")
	// Cold-cache random reads inside zone 1's written extent.
	rng := sim.NewRand(0)
	span := int64(rounds) * ioBytes
	sector := make([]byte, conzone.SectorSize)
	for i := 0; i < 256; i++ {
		off := int64(rng.Uint64()) % (span / conzone.SectorSize)
		if off < 0 {
			off = -off
		}
		if err := dev.ReadInto(1*zb+off*conzone.SectorSize, sector); err != nil {
			return none, err
		}
	}
	phase("random reads")
	if err := dev.ResetZone(3); err != nil {
		return none, err
	}
	phase("zone reset")

	tel := dev.Telemetry()
	var prom strings.Builder
	if err := obs.WriteExposition(&prom, tel.Expose); err != nil {
		return none, err
	}
	return Report{
		Title:     "Lifecycle metrics workload (paper configuration)",
		Tables:    []Table{{Notes: append(lines, "", strings.TrimSuffix(prom.String(), "\n"))}},
		Pass:      true,
		Artifacts: map[string]func(io.Writer) error{"metrics-json": tel.WriteJSON, "chrome": tel.WriteChromeTrace},
	}, nil
}
