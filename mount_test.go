package conzone

import (
	"testing"
	"time"

	"github.com/conzone/conzone/internal/check"
	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/ftl"
	"github.com/conzone/conzone/internal/mapping"
	"github.com/conzone/conzone/internal/obs"
	"github.com/conzone/conzone/internal/sim"
)

// randReadKIOPS issues n synchronous random 4 KiB reads over the first zones
// zones, each at the previous one's completion, and returns the virtual-time
// rate and the L2P miss ratio of exactly those reads.
func randReadKIOPS(t *testing.T, f *ftl.FTL, zones int, n int) (kiops, miss float64) {
	t.Helper()
	rng := sim.NewRand(7)
	before := f.Cache().Stats()
	start := f.Array().Engine().Now()
	at := start
	for i := 0; i < n; i++ {
		_, done, err := f.Read(at, rng.Int63n(int64(zones)*f.ZoneCapSectors()), 1)
		if err != nil {
			t.Fatal(err)
		}
		at = done
	}
	after := f.Cache().Stats()
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	return float64(n) / at.Sub(start).Seconds() / 1e3, float64(misses) / float64(hits+misses)
}

// bitsHistogram counts the first zones zones' LPAs by map-bit granularity.
func bitsHistogram(f *ftl.FTL, zones int) (h [3]int64) {
	for lpa := int64(0); lpa < int64(zones)*f.ZoneCapSectors(); lpa++ {
		h[f.Table().Bits(lpa)]++
	}
	return h
}

// TestMountRestoresHybridMapping is the Fig. 7 arm a device is on, before and
// after a mount: 32 filled zones of the paper configuration are
// zone-aggregated, so random reads hit the 12 KiB L2P cache; the mounted twin
// must be on the same arm — every zone aggregated again (the 64-sector SLC
// alignment tails are one staging run each), misses at most 1 %, at least
// 95 % of the rate. Before the mount replayed the write path's rules it came
// back page-mapped: 97.9 % misses at 62 % of the rate.
func TestMountRestoresHybridMapping(t *testing.T) {
	const zones, reads = 32, 16384
	cfg := config.Paper()
	f, err := cfg.NewConZone()
	if err != nil {
		t.Fatal(err)
	}
	var at sim.Time
	for lba := int64(0); lba < zones*f.ZoneCapSectors(); lba += 256 {
		if at, err = f.Write(at, lba, make([][]byte, 256)); err != nil { // timing-only: no payloads
			t.Fatal(err)
		}
	}
	if _, err := f.FlushAll(at); err != nil {
		t.Fatal(err)
	}
	liveBits := bitsHistogram(f, zones)
	liveKIOPS, liveMiss := randReadKIOPS(t, f, zones, reads)

	m, _, err := ftl.Recover(f.Array(), cfg.FTL)
	if err != nil {
		t.Fatal(err)
	}
	if err := check.Audit(m); err != nil {
		t.Fatal(err)
	}
	bits := bitsHistogram(m, zones)
	kiops, miss := randReadKIOPS(t, m, zones, reads)
	t.Logf("live:    %.1f KIOPS, %.1f %% L2P miss, bits page/chunk/zone %v", liveKIOPS, 100*liveMiss, liveBits)
	t.Logf("mounted: %.1f KIOPS, %.1f %% L2P miss, bits page/chunk/zone %v", kiops, 100*miss, bits)
	if want := int64(zones) * f.ZoneCapSectors(); liveBits[mapping.Zone] != want || bits[mapping.Zone] != want {
		t.Errorf("zone-aggregated LPAs: live %d, mounted %d, want all %d", liveBits[mapping.Zone], bits[mapping.Zone], want)
	}
	if miss > 0.01 {
		t.Errorf("mounted device misses %.1f %% of L2P lookups, want at most 1 %%", 100*miss)
	}
	if kiops < 0.95*liveKIOPS {
		t.Errorf("mounted device reads at %.1f KIOPS, under 95 %% of the live device's %.1f", kiops, liveKIOPS)
	}
}

// stagingChurn writes and flushes single sectors round-robin over the first
// four zones, resetting a zone when it fills: every flush stages a partial
// program unit in SLC, so the staging region garbage-collects steadily.
func stagingChurn(t *testing.T, dev *Device, rounds int) {
	t.Helper()
	sector := make([]byte, SectorSize)
	for i := 0; i < rounds; i++ {
		zone := i % 4
		z, err := dev.Zone(zone)
		if err != nil {
			t.Fatal(err)
		}
		if z.Written() == z.Capacity {
			if err := dev.ResetZone(zone); err != nil {
				t.Fatal(err)
			}
			z.WP = z.Start
		}
		if err := dev.Write(z.WP*SectorSize, sector); err != nil {
			t.Fatalf("round %d zone %d: %v", i, zone, err)
		}
		if err := dev.FlushZone(zone); err != nil {
			t.Fatalf("round %d zone %d: %v", i, zone, err)
		}
	}
}

// TestRemountKeepsObservation: what observes a device outlives a mount. The
// lifecycle recorder stays attached — it belongs to the NAND array, which is
// what a mount keeps — so the FTL's, the SLC region's and the media's stages
// all keep counting into the one snapshot; before, the mounted FTL and SLC
// region had no recorder and the array fed an orphan (Recorded fell to 0).
// The sampler marks the mount with exactly one discontinuity, and rebuilding
// only the host controller (ConfigureQueues) marks nothing.
func TestRemountKeepsObservation(t *testing.T) {
	dev, err := Open(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	dev.EnableObservation(0)
	if err := dev.EnableSampling(200*time.Microsecond, 0); err != nil {
		t.Fatal(err)
	}
	stagingChurn(t, dev, 600)
	if err := dev.ConfigureQueues(2, 8); err != nil {
		t.Fatal(err)
	}
	before := dev.Telemetry()
	if err := dev.Remount(); err != nil {
		t.Fatal(err)
	}
	if dev.FTL().Recorder() == nil || dev.Host().Recorder() == nil {
		t.Fatal("no recorder behind the mounted FTL")
	}
	if got := dev.Telemetry().Recorded; got != before.Recorded {
		t.Fatalf("the mount changed the snapshot: %d spans recorded before, %d after", before.Recorded, got)
	}
	stagingChurn(t, dev, 600)
	after := dev.Telemetry()
	for _, stage := range []obs.Stage{obs.StageHostWrite, obs.StageSLCStage, obs.StageGCCollect, obs.StageNANDProgram} {
		b, a := before.Stage(stage.String()).Count, after.Stage(stage.String()).Count
		if b == 0 || a <= b {
			t.Errorf("stage %v: %d spans before the mount, %d after as much work again", stage, b, a)
		}
	}
	marks := 0
	for _, s := range dev.Series() {
		if s.Discontinuity {
			marks++
		}
	}
	if marks != 1 {
		t.Errorf("%d discontinuity markers in the series, want the mount's one", marks)
	}
	if err := dev.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
