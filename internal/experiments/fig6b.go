package experiments

import (
	"fmt"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/refdata"
	"github.com/conzone/conzone/internal/units"
	"github.com/conzone/conzone/internal/workload"
)

// Fig6bResult reports the write-buffer-conflict experiment: two threads
// write one zone each with 48 KiB granularity; when the two zones share a
// write buffer (same parity under modulo mapping) every switch evicts the
// other zone's sub-unit data to SLC.
type Fig6bResult struct {
	ConflictBW    float64 // MiB/s
	NoConflictBW  float64
	ConflictWAF   float64
	NoConflictWAF float64
	// Premature flush counts make the mechanism visible.
	ConflictEvictions   int64
	NoConflictEvictions int64

	Checks []string
	Pass   bool
}

// RunFig6b reproduces Fig. 6(b). The paper splits odd and even zones
// across the two buffers and writes two zones of the same parity
// (conflict) or different parity (no conflict), 48 KiB at a time, one
// zone's capacity per thread.
func RunFig6b(cfg config.DeviceConfig, opt Options) (Fig6bResult, error) {
	var res Fig6bResult
	// Same parity -> same buffer -> conflicts (zones 1 and 3); different
	// parity -> different buffers (zones 1 and 2).
	arms := []struct {
		name      string
		zones     []int
		bw, waf   *float64
		evictions *int64
	}{
		{"conflict", []int{1, 3}, &res.ConflictBW, &res.ConflictWAF, &res.ConflictEvictions},
		{"no-conflict", []int{1, 2}, &res.NoConflictBW, &res.NoConflictWAF, &res.NoConflictEvictions},
	}
	if err := each(len(arms), func(i int) error {
		a := arms[i]
		f, err := cfg.NewConZone()
		if err != nil {
			return fmt.Errorf("%s run: %w", a.name, err)
		}
		r, err := workload.Run(f, zoneWriteJob(f, min(opt.WriteBytes, f.ZoneCapSectors()*units.Sector), opt, 17, a.zones...))
		if err != nil {
			return fmt.Errorf("%s run: %w", a.name, err)
		}
		*a.bw, *a.waf, *a.evictions = r.BandwidthMiBps, f.WAF(), f.Buffers().Stats().Evictions
		return nil
	}); err != nil {
		return res, err
	}

	res.Checks, res.Pass = evaluate(refdata.Fig6b(), map[string]float64{
		"fig6b-bandwidth": ratio(res.NoConflictBW, res.ConflictBW),
		"fig6b-wa":        drop(res.NoConflictWAF, res.ConflictWAF),
	})
	return res, nil
}
