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
	modes := []string{"page", "hybrid"}
	res.Points = make([]Fig7Point, len(modes)*len(Fig7Ranges))
	if err := each(len(res.Points), func(i int) error {
		mode, rng := modes[i/len(Fig7Ranges)], Fig7Ranges[i%len(Fig7Ranges)]
		p, err := runRandRead(cfg, opt, mode, rng, cfg.FTL.Search, cfg.FTL.L2PCacheBytes)
		if err != nil {
			return fmt.Errorf("fig7 %s/%s: %w", mode, units.FormatBytes(rng), err)
		}
		res.Points[i] = p
		return nil
	}); err != nil {
		return res, err
	}

	// Points are mode-major: mode m (0 page, 1 hybrid) over Fig7Ranges[r]
	// is slot m*len(Fig7Ranges)+r.
	point := func(m, r int) Fig7Point { return res.Points[m*len(Fig7Ranges)+r] }
	res.Checks, res.Pass = evaluate(refdata.Fig7(), map[string]float64{
		"fig7-page-16mib":  drop(point(0, 1).KIOPS, point(0, 0).KIOPS),
		"fig7-page-1gib":   drop(point(0, 2).KIOPS, point(0, 0).KIOPS),
		"fig7-hybrid-flat": drop(point(1, 2).KIOPS, point(1, 0).KIOPS),
	}, hybridTail(point(1, 2).P99))
	return res, nil
}

// hybridTail is Fig. 7's absolute band, the paper's tail-latency
// observation: hybrid mapping's p99 stays around 50us.
func hybridTail(p99 time.Duration) band {
	t := refdata.Fig7HybridTail
	lo, hi := t.Target-t.Tolerance, t.Target+t.Tolerance
	return inBand(p99 >= lo && p99 <= hi, "[fig7-hybrid-tail] hybrid p99 ~%v: measured=%v (band [%v,%v])", t.Target, p99, lo, hi)
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
		w, err := workload.Run(f, randJob(0, rng, opt.WarmupOps, opt, 23, at))
		if err != nil {
			return point, fmt.Errorf("warmup: %w", err)
		}
		at = at.Add(w.Elapsed)
	}
	before := telemetry.Stats{Cache: f.Cache().Stats()}
	r, err := workload.Run(f, randJob(0, rng, opt.RandReadOps, opt, 29, at))
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
