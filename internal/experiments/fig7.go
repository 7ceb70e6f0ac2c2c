package experiments

import (
	"fmt"
	"time"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/ftl"
	"github.com/conzone/conzone/internal/refdata"
	"github.com/conzone/conzone/internal/telemetry"
	"github.com/conzone/conzone/internal/units"
	"github.com/conzone/conzone/internal/workload"
)

// Fig7Point is one bar/point of Fig. 7: 4 KiB random reads under one
// mapping mechanism over one read range.
type Fig7Point struct {
	Mapping   string // "page" or "hybrid"
	Range     int64  // bytes
	KIOPS     float64
	P99       time.Duration
	MissRatio float64
}

// Fig7Result holds all points plus the claim evaluation.
type Fig7Result struct {
	Points []Fig7Point
	Checks []string
	Pass   bool
}

// Fig7Ranges are the paper's read ranges.
var Fig7Ranges = []int64{1 * units.MiB, 16 * units.MiB, 1 * units.GiB}

// RunFig7 reproduces Fig. 7: the same volume of 4 KiB random reads issued
// over 1 MiB, 16 MiB and 1 GiB ranges, under page mapping and under hybrid
// mapping. Page mapping suffers as the range outgrows the 12 KiB L2P
// cache; hybrid mapping's chunk/zone entries keep everything resident.
func RunFig7(cfg config.DeviceConfig, opt Options) (Fig7Result, error) {
	var res Fig7Result
	for _, mode := range []string{"page", "hybrid"} {
		for _, rng := range Fig7Ranges {
			p, err := runRandRead(cfg, opt, mode, rng, cfg.FTL.Search, cfg.FTL.L2PCacheBytes)
			if err != nil {
				return res, fmt.Errorf("fig7 %s/%s: %w", mode, units.FormatBytes(rng), err)
			}
			res.Points = append(res.Points, p)
		}
	}

	byKey := func(mapping string, rng int64) Fig7Point {
		for _, p := range res.Points {
			if p.Mapping == mapping && p.Range == rng {
				return p
			}
		}
		return Fig7Point{}
	}
	drop := func(mapping string, rng int64) float64 {
		base := byKey(mapping, Fig7Ranges[0]).KIOPS
		if base == 0 {
			return 0
		}
		return 1 - byKey(mapping, rng).KIOPS/base
	}

	res.Pass = true
	for _, c := range refdata.Fig7() {
		var m float64
		switch c.ID {
		case "fig7-page-16mib":
			m = drop("page", Fig7Ranges[1])
		case "fig7-page-1gib":
			m = drop("page", Fig7Ranges[2])
		case "fig7-hybrid-flat":
			m = drop("hybrid", Fig7Ranges[2])
		}
		ok, line := c.Check(m)
		res.Checks = append(res.Checks, line)
		res.Pass = res.Pass && ok
	}
	// Tail-latency observation: hybrid stays around 50us.
	tail := byKey("hybrid", Fig7Ranges[2]).P99
	lo := refdata.Fig7HybridTail.Target - refdata.Fig7HybridTail.Tolerance
	hi := refdata.Fig7HybridTail.Target + refdata.Fig7HybridTail.Tolerance
	ok := tail >= lo && tail <= hi
	verdict := "OK"
	if !ok {
		verdict = "OFF"
		res.Pass = false
	}
	res.Checks = append(res.Checks, fmt.Sprintf(
		"[fig7-hybrid-tail] hybrid p99 ~%v: measured=%v (band [%v,%v]) %s",
		refdata.Fig7HybridTail.Target, tail, lo, hi, verdict))
	return res, nil
}

// runRandRead prefills a range and measures 4 KiB random reads over it.
// mode selects page/hybrid mapping; strategy and cache bytes are
// overridable for Fig. 8.
func runRandRead(cfg config.DeviceConfig, opt Options, mode string, rng int64,
	strategy ftl.Strategy, cacheBytes int64) (Fig7Point, error) {
	var point Fig7Point
	c := cfg
	c.FTL.Search = strategy
	c.FTL.L2PCacheBytes = cacheBytes
	c.FTL.DisableAggregation = mode == "page"
	f, err := c.NewConZone()
	if err != nil {
		return point, err
	}
	capBytes := f.TotalSectors() * units.Sector
	if rng > capBytes {
		return point, fmt.Errorf("range %d exceeds capacity %d", rng, capBytes)
	}
	at, err := workload.Prefill(f, 0, 0, rng, false)
	if err != nil {
		return point, fmt.Errorf("prefill: %w", err)
	}
	// Warm the cache with an unmeasured pass.
	if opt.WarmupOps > 0 {
		w, err := workload.Run(f, workload.Job{
			Name: "warmup", Pattern: workload.RandRead,
			BlockBytes: randBS, NumJobs: 1,
			RangeBytes:       rng,
			TotalBytesPerJob: opt.WarmupOps * randBS,
			PerOpOverhead:    opt.ReadOverhead,
			Seed:             23,
			StartAt:          at,
		})
		if err != nil {
			return point, fmt.Errorf("warmup: %w", err)
		}
		at = at.Add(w.Elapsed)
	}
	before := telemetry.Stats{Cache: f.Cache().Stats()}
	r, err := workload.Run(f, workload.Job{
		Name: "randread", Pattern: workload.RandRead,
		BlockBytes: randBS, NumJobs: 1,
		RangeBytes:       rng,
		TotalBytesPerJob: opt.RandReadOps * randBS,
		PerOpOverhead:    opt.ReadOverhead,
		Seed:             29,
		StartAt:          at,
	})
	if err != nil {
		return point, err
	}
	point = Fig7Point{
		Mapping:   mode,
		Range:     rng,
		KIOPS:     r.KIOPS(),
		P99:       r.Lat.P99,
		MissRatio: telemetry.Stats{Cache: f.Cache().Stats()}.Delta(before).L2PMissRatio,
	}
	return point, nil
}
