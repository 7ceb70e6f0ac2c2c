package experiments

import (
	"fmt"
	"strings"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/refdata"
	"github.com/conzone/conzone/internal/workload"
)

// Fig6aRow is one series of Fig. 6(a): 512 KiB sequential bandwidth in
// MiB/s, single-threaded (ST) and with 4 threads (MT).
type Fig6aRow struct {
	Series  string
	WriteST float64
	WriteMT float64
	ReadST  float64
	ReadMT  float64
}

// Fig6aResult holds the measured series and the evaluated paper claims.
type Fig6aResult struct {
	Rows   []Fig6aRow
	Checks []string
	Pass   bool
}

// RunFig6a measures 512 KiB sequential read/write bandwidth for ConZone,
// Legacy and the FEMU personality, and synthesises the ZMS reference row
// from the paper's relative statements (ZMS hardware cannot be re-measured;
// the paper reports ConZone ≈ ZMS for writes and MT reads, with ST reads
// lower on ConZone's weaker single core).
func RunFig6a(cfg config.DeviceConfig, opt Options) (Fig6aResult, error) {
	var res Fig6aResult

	measure := func(build func() (workload.Device, error)) (Fig6aRow, error) {
		var row Fig6aRow
		region, err := fitRegion(cfg, opt.ReadRegion)
		if err != nil {
			return row, err
		}
		// Write ST and MT on fresh devices, then prefill one device and scan
		// it ST and MT.
		writes := []*float64{&row.WriteST, &row.WriteMT}
		for i, jobs := range []int{1, 4} {
			dev, err := build()
			if err != nil {
				return row, err
			}
			r, err := workload.Run(dev, seqJob(workload.SeqWrite, jobs, region, opt.WriteBytes, opt, 11, 0))
			if err != nil {
				return row, fmt.Errorf("write mt=%v: %w", jobs > 1, err)
			}
			*writes[i] = r.BandwidthMiBps
		}
		dev, err := build()
		if err != nil {
			return row, err
		}
		at, err := workload.Prefill(dev, 0, 0, region, false)
		if err != nil {
			return row, fmt.Errorf("prefill: %w", err)
		}
		reads := []*float64{&row.ReadST, &row.ReadMT}
		for i, jobs := range []int{1, 4} {
			r, err := workload.Run(dev, seqJob(workload.SeqRead, jobs, region, opt.ReadBytes, opt, 13, at))
			if err != nil {
				return row, fmt.Errorf("read mt=%v: %w", jobs > 1, err)
			}
			*reads[i] = r.BandwidthMiBps
		}
		return row, nil
	}

	series := []struct {
		name  string
		build func() (workload.Device, error)
	}{
		{"ConZone", func() (workload.Device, error) { return cfg.NewConZone() }},
		{"Legacy", func() (workload.Device, error) { return cfg.NewLegacy() }},
		{"FEMU", func() (workload.Device, error) { return cfg.NewFEMU() }},
	}
	rows := make([]Fig6aRow, len(series))
	if err := each(len(series), func(i int) error {
		row, err := measure(series[i].build)
		if err != nil {
			return fmt.Errorf("%s: %w", strings.ToLower(series[i].name), err)
		}
		row.Series = series[i].name
		rows[i] = row
		return nil
	}); err != nil {
		return res, err
	}
	cz, lg, fm := rows[0], rows[1], rows[2]

	// Synthesised ZMS reference (see function comment and DESIGN.md).
	zms := Fig6aRow{
		Series:  "ZMS (synth.)",
		WriteST: cz.WriteST,
		WriteMT: cz.WriteMT,
		ReadST:  cz.ReadST * 1.25,
		ReadMT:  cz.ReadMT,
	}
	res.Rows = []Fig6aRow{zms, cz, lg, fm}

	res.Checks, res.Pass = evaluate(refdata.Fig6a(), map[string]float64{
		"fig6a-write-vs-legacy":   ratio(cz.WriteST, lg.WriteST),
		"fig6a-read-st-vs-legacy": ratio(cz.ReadST, lg.ReadST),
		"fig6a-read-mt-vs-legacy": ratio(cz.ReadMT, lg.ReadMT),
		"fig6a-femu-write-high":   ratio(fm.WriteST, cz.WriteST),
		"fig6a-femu-read-st-low":  ratio(fm.ReadST, cz.ReadST),
	})
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// drop is the relative shortfall of v below base, 1 - v/base, or 0 without
// a base.
func drop(v, base float64) float64 {
	if base <= 0 {
		return 0
	}
	return 1 - v/base
}
