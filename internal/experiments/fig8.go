package experiments

import (
	"fmt"
	"time"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/ftl"
	"github.com/conzone/conzone/internal/refdata"
	"github.com/conzone/conzone/internal/units"
)

// Fig8Point is one strategy's result at the target miss rate.
type Fig8Point struct {
	Strategy  string
	KIOPS     float64
	P99       time.Duration
	MissRatio float64
}

// Fig8Result holds all strategies plus claim evaluation.
type Fig8Result struct {
	Points []Fig8Point
	Checks []string
	Pass   bool
}

// RunFig8 reproduces Fig. 8: 4 KiB random reads under hybrid mapping with
// an L2P cache deliberately too small for the working set's chunk entries,
// producing the paper's ~27.4% miss rate. BITMAP resolves a miss with one
// flash fetch, MULTIPLE needs one fetch per probed level, and PINNED keeps
// aggregated entries resident (the paper's proposed remedy; its extra
// resident entries model the 256 KiB-per-TiB SRAM the paper budgets).
func RunFig8(cfg config.DeviceConfig, opt Options) (Fig8Result, error) {
	var res Fig8Result

	// Sizing: chunk-only aggregation over a 1 GiB (or capacity-limited)
	// range needs range/chunk entries; choose a cache that holds ~72.6%
	// of them so the LRU miss ratio lands near the paper's 27.4%.
	c := cfg
	c.FTL.AggregateZones = false
	rng, err := fitRegion(c, 1*units.GiB)
	if err != nil {
		return res, err
	}
	chunkBytes := c.FTL.ChunkSectors * units.Sector
	entries := rng / chunkBytes
	resident := int64(float64(entries) * (1 - refdata.Fig8TargetMissRate))
	cacheBytes := resident * c.FTL.L2PEntryBytes
	if cacheBytes < c.FTL.L2PEntryBytes {
		cacheBytes = c.FTL.L2PEntryBytes
	}

	strategies := []ftl.Strategy{ftl.Bitmap, ftl.Multiple, ftl.Pinned}
	res.Points = make([]Fig8Point, len(strategies))
	if err := each(len(strategies), func(i int) error {
		s := strategies[i]
		p, err := runRandRead(c, opt, "hybrid", rng, s, cacheBytes)
		if err != nil {
			return fmt.Errorf("fig8 %v: %w", s, err)
		}
		res.Points[i] = Fig8Point{
			Strategy:  s.String(),
			KIOPS:     p.KIOPS,
			P99:       p.P99,
			MissRatio: p.MissRatio,
		}
		return nil
	}); err != nil {
		return res, err
	}

	bitmap, multiple, pinned := res.Points[0], res.Points[1], res.Points[2]
	res.Checks, res.Pass = evaluate(refdata.Fig8(), map[string]float64{
		"fig8-multiple-kiops": drop(multiple.KIOPS, bitmap.KIOPS),
		"fig8-pinned-close":   ratio(pinned.KIOPS, bitmap.KIOPS),
	}, missRate(bitmap.MissRatio))
	return res, nil
}

// missRate is Fig. 8's absolute band: the L2P miss rate is part of the
// experiment's identity, within 12 points of the paper's.
func missRate(r float64) band {
	return inBand(r > refdata.Fig8TargetMissRate-0.12 && r < refdata.Fig8TargetMissRate+0.12,
		"[fig8-missrate] L2P miss rate ~%.1f%%: measured=%.1f%%", refdata.Fig8TargetMissRate*100, r*100)
}
