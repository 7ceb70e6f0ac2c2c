package experiments

import (
	"fmt"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
	"github.com/conzone/conzone/internal/workload"
)

// AblationResult is a generic two-arm comparison.
type AblationResult struct {
	Name     string
	Baseline string
	Variant  string
	// Metrics maps metric name -> [baseline, variant].
	Metrics map[string][2]float64
}

// RunAblationChannelBW quantifies the channel-bandwidth model (DESIGN.md
// ablation 1): the FEMU comparison hinges on it. Baseline is the paper's
// 3200 MiB/s channel; the variant removes the channel model.
func RunAblationChannelBW(cfg config.DeviceConfig, opt Options) (AblationResult, error) {
	res := AblationResult{
		Name:     "channel-bandwidth-model",
		Baseline: "3200 MiB/s channel",
		Variant:  "unthrottled channel",
		Metrics:  map[string][2]float64{},
	}
	for i, mibps := range []float64{3200, 0} {
		c := cfg
		c.Geometry.ChannelMiBps = mibps
		f, err := c.NewConZone()
		if err != nil {
			return res, err
		}
		region, err := fitRegion(c, opt.ReadRegion)
		if err != nil {
			return res, err
		}
		w, err := workload.Run(f, seqJob(workload.SeqWrite, 4, region, opt.WriteBytes, opt, 31, 0))
		if err != nil {
			return res, err
		}
		setArm(res.Metrics, "writeMT_MiBps", i, w.BandwidthMiBps)

		// Reset the zones the write phase consumed, then prefill for reads.
		at, err := workload.ResetAllZones(f, sim.Time(0).Add(w.Elapsed))
		if err != nil {
			return res, err
		}
		at, err = workload.Prefill(f, at, 0, region, false)
		if err != nil {
			return res, err
		}
		r, err := workload.Run(f, seqJob(workload.SeqRead, 4, region, opt.ReadBytes, opt, 37, at))
		if err != nil {
			return res, err
		}
		setArm(res.Metrics, "readMT_MiBps", i, r.BandwidthMiBps)
	}
	return res, nil
}

// RunAblationDedicatedBuffers re-runs the Fig. 6(b) conflict workload with
// enough write buffers for every open zone (DESIGN.md ablation 2): the
// conflicts, premature flushes and their WAF cost disappear.
func RunAblationDedicatedBuffers(cfg config.DeviceConfig, opt Options) (AblationResult, error) {
	res := AblationResult{
		Name:     "dedicated-write-buffers",
		Baseline: fmt.Sprintf("%d shared buffers", cfg.FTL.NumWriteBuffers),
		Variant:  "one buffer per zone pair in use",
		Metrics:  map[string][2]float64{},
	}
	for i, nbuf := range []int{cfg.FTL.NumWriteBuffers, 8} {
		c := cfg
		c.FTL.NumWriteBuffers = nbuf
		f, err := c.NewConZone()
		if err != nil {
			return res, err
		}
		// Zones 1 and 3 conflict with 2 buffers but not with 8.
		r, err := workload.Run(f, zoneWriteJob(f, min(opt.WriteBytes, f.ZoneCapSectors()*units.Sector), opt, 41, 1, 3))
		if err != nil {
			return res, err
		}
		setArm(res.Metrics, "bandwidth_MiBps", i, r.BandwidthMiBps)
		setArm(res.Metrics, "WAF", i, f.WAF())
		setArm(res.Metrics, "evictions", i, float64(f.Buffers().Stats().Evictions))
	}
	return res, nil
}

// RunAblationCombine toggles the Fig. 3 ③ combine path on the conflict
// workload (DESIGN.md ablation 3). Without combining, staged data stays in
// SLC: media writes drop but reads of that data pay SLC residency and the
// mapping stays page-granular.
func RunAblationCombine(cfg config.DeviceConfig, opt Options) (AblationResult, error) {
	res := AblationResult{
		Name:     "slc-combine-path",
		Baseline: "combine enabled (Fig. 3 ③)",
		Variant:  "combine disabled (data lingers in SLC)",
		Metrics:  map[string][2]float64{},
	}
	for i, disable := range []bool{false, true} {
		c := cfg
		c.FTL.DisableCombine = disable
		f, err := c.NewConZone()
		if err != nil {
			return res, err
		}
		// Keep the volume inside the SLC staging budget: without the
		// combine path nothing drains staging until a reset.
		vol := min(opt.WriteBytes, f.ZoneCapSectors()*units.Sector, f.Staging().TotalSectors()*units.Sector/4)
		r, err := workload.Run(f, zoneWriteJob(f, vol, opt, 43, 1, 3))
		if err != nil {
			return res, err
		}
		setArm(res.Metrics, "bandwidth_MiBps", i, r.BandwidthMiBps)
		setArm(res.Metrics, "WAF", i, f.WAF())
		setArm(res.Metrics, "combines", i, float64(f.Stats().Combines))
		setArm(res.Metrics, "staged_sectors", i, float64(f.Stats().StagedSectors))
	}
	return res, nil
}

// RunAblationZoneAggregation compares chunk-only against chunk+zone
// aggregation on the Fig. 7 large-range random-read point (DESIGN.md
// ablation 4; the paper's §IV-C fairness note uses chunk-only).
func RunAblationZoneAggregation(cfg config.DeviceConfig, opt Options) (AblationResult, error) {
	res := AblationResult{
		Name:     "zone-level-aggregation",
		Baseline: "chunk-only aggregation",
		Variant:  "chunk+zone aggregation",
		Metrics:  map[string][2]float64{},
	}
	rng, err := fitRegion(cfg, 1*units.GiB)
	if err != nil {
		return res, err
	}
	for i, zones := range []bool{false, true} {
		c := cfg
		c.FTL.AggregateZones = zones
		// A cache too small for all chunk entries but large enough for
		// all zone entries makes the difference visible.
		chunkEntries := rng / (c.FTL.ChunkSectors * units.Sector)
		c.FTL.L2PCacheBytes = chunkEntries * c.FTL.L2PEntryBytes / 2
		p, err := runRandRead(c, opt, "hybrid", rng, c.FTL.Search, c.FTL.L2PCacheBytes)
		if err != nil {
			return res, err
		}
		setArm(res.Metrics, "KIOPS", i, p.KIOPS)
		setArm(res.Metrics, "miss_ratio", i, p.MissRatio)
		setArm(res.Metrics, "p99_us", i, float64(p.P99.Microseconds()))
	}
	return res, nil
}

// RunAblationL2PLog toggles the L2P-log persistence model (an extension of
// the paper's §III-E future work): mapping updates accumulate in a
// 1024-entry log whose flush to the map region blocks the host request
// that tripped it. The ablation quantifies the bandwidth and tail-latency
// cost of persistence on an fsync-heavy small-write stream.
func RunAblationL2PLog(cfg config.DeviceConfig, opt Options) (AblationResult, error) {
	res := AblationResult{
		Name:     "l2p-log-persistence",
		Baseline: "no persistence (the paper's artifact)",
		Variant:  "1024-entry L2P log, blocking flushes",
		Metrics:  map[string][2]float64{},
	}
	for i, entries := range []int64{0, 1024} {
		c := cfg
		c.FTL.L2PLogEntries = entries
		f, err := c.NewConZone()
		if err != nil {
			return res, err
		}
		// One thread from zone 0 on, across four zones' worth.
		r, err := workload.Run(f, zoneWriteJob(f, min(opt.WriteBytes, 4*f.ZoneCapSectors()*units.Sector), opt, 47, 0))
		if err != nil {
			return res, err
		}
		setArm(res.Metrics, "bandwidth_MiBps", i, r.BandwidthMiBps)
		setArm(res.Metrics, "p999_us", i, float64(r.Lat.P999.Microseconds()))
		setArm(res.Metrics, "log_flushes", i, float64(f.Stats().L2PLogFlushes))
	}
	return res, nil
}

func setArm(m map[string][2]float64, key string, arm int, v float64) {
	pair := m[key]
	pair[arm] = v
	m[key] = pair
}
