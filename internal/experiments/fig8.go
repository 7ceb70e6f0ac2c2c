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

	byName := func(name string) Fig8Point {
		for _, p := range res.Points {
			if p.Strategy == name {
				return p
			}
		}
		return Fig8Point{}
	}
	bitmap, multiple, pinned := byName("BITMAP"), byName("MULTIPLE"), byName("PINNED")

	res.Pass = true
	for _, c := range refdata.Fig8() {
		var m float64
		switch c.ID {
		case "fig8-multiple-kiops":
			if bitmap.KIOPS > 0 {
				m = 1 - multiple.KIOPS/bitmap.KIOPS
			}
		case "fig8-pinned-close":
			m = ratio(pinned.KIOPS, bitmap.KIOPS)
		}
		ok, line := c.Check(m)
		res.Checks = append(res.Checks, line)
		res.Pass = res.Pass && ok
	}
	// The miss rate itself is part of the experiment's identity.
	missOK := bitmap.MissRatio > refdata.Fig8TargetMissRate-0.12 &&
		bitmap.MissRatio < refdata.Fig8TargetMissRate+0.12
	verdict := "OK"
	if !missOK {
		verdict = "OFF"
		res.Pass = false
	}
	res.Checks = append(res.Checks, fmt.Sprintf(
		"[fig8-missrate] L2P miss rate ~%.1f%%: measured=%.1f%% %s",
		refdata.Fig8TargetMissRate*100, bitmap.MissRatio*100, verdict))
	return res, nil
}
