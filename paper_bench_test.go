package conzone_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§IV). Each benchmark runs the corresponding experiment from
// internal/experiments and reports the paper-relevant quantities as custom
// metrics (virtual-time bandwidths, KIOPS, ratios, WAF); wall-clock ns/op
// measures the emulator itself. Run with:
//
//	go test -bench=. -benchmem
//
// The same experiments are printed in table form by cmd/conzone-bench. This
// file is an external test package because internal/experiments imports the
// root package.

import (
	"testing"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/experiments"
	"github.com/conzone/conzone/internal/units"
)

func benchOptions() experiments.Options {
	if testing.Short() {
		return experiments.Quick()
	}
	return experiments.Default()
}

// BenchmarkTable2 regenerates Table II: the media latencies of the timing
// model, reported in microseconds of virtual time.
func BenchmarkTable2(b *testing.B) {
	cfg := config.Paper()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.VerifyTable2(rows); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(float64(r.Measured.Microseconds()), r.Media+"_"+r.Op+"_us")
			}
		}
	}
}

// BenchmarkFig6a regenerates Fig. 6(a): 512 KiB sequential bandwidth for
// ConZone, Legacy and FEMU, single- and multi-threaded.
func BenchmarkFig6a(b *testing.B) {
	cfg := config.Paper()
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig6a(cfg, opt)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Pass {
			b.Errorf("fig6a claims not reproduced:\n%v", res.Checks)
		}
		if i == 0 {
			for _, r := range res.Rows {
				if r.Series == "ZMS (synth.)" {
					continue
				}
				b.ReportMetric(r.WriteST, r.Series+"_writeST_MiBps")
				b.ReportMetric(r.WriteMT, r.Series+"_writeMT_MiBps")
				b.ReportMetric(r.ReadST, r.Series+"_readST_MiBps")
				b.ReportMetric(r.ReadMT, r.Series+"_readMT_MiBps")
			}
		}
	}
}

// BenchmarkFig6b regenerates Fig. 6(b): the write-buffer conflict study.
func BenchmarkFig6b(b *testing.B) {
	cfg := config.Paper()
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig6b(cfg, opt)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Pass {
			b.Errorf("fig6b claims not reproduced:\n%v", res.Checks)
		}
		if i == 0 {
			b.ReportMetric(res.ConflictBW, "conflict_MiBps")
			b.ReportMetric(res.NoConflictBW, "noConflict_MiBps")
			b.ReportMetric(res.ConflictWAF, "conflict_WAF")
			b.ReportMetric(res.NoConflictWAF, "noConflict_WAF")
		}
	}
}

// BenchmarkFig7 regenerates Fig. 7: page vs hybrid mapping under 4 KiB
// random reads over 1 MiB / 16 MiB / 1 GiB ranges.
func BenchmarkFig7(b *testing.B) {
	cfg := config.Paper()
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig7(cfg, opt)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Pass {
			b.Errorf("fig7 claims not reproduced:\n%v", res.Checks)
		}
		if i == 0 {
			for _, p := range res.Points {
				name := p.Mapping + "_" + units.FormatBytes(p.Range)
				b.ReportMetric(p.KIOPS, name+"_KIOPS")
				b.ReportMetric(float64(p.P99.Microseconds()), name+"_p99_us")
			}
		}
	}
}

// BenchmarkFig8 regenerates Fig. 8: BITMAP vs MULTIPLE vs PINNED L2P
// search strategies at the paper's ~27.4% miss rate.
func BenchmarkFig8(b *testing.B) {
	cfg := config.Paper()
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig8(cfg, opt)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Pass {
			b.Errorf("fig8 claims not reproduced:\n%v", res.Checks)
		}
		if i == 0 {
			for _, p := range res.Points {
				b.ReportMetric(p.KIOPS, p.Strategy+"_KIOPS")
				b.ReportMetric(float64(p.P99.Microseconds()), p.Strategy+"_p99_us")
				b.ReportMetric(p.MissRatio*100, p.Strategy+"_miss_pct")
			}
		}
	}
}

// BenchmarkAblationChannelBW quantifies the channel-bandwidth model
// (DESIGN.md ablation 1).
func BenchmarkAblationChannelBW(b *testing.B) {
	cfg := config.Paper()
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationChannelBW(cfg, opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			w := res.Metrics["writeMT_MiBps"]
			b.ReportMetric(w[0], "throttled_MiBps")
			b.ReportMetric(w[1], "unthrottled_MiBps")
		}
	}
}

// BenchmarkAblationDedicatedBuffers re-runs the conflict workload with a
// buffer per zone (DESIGN.md ablation 2).
func BenchmarkAblationDedicatedBuffers(b *testing.B) {
	cfg := config.Paper()
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationDedicatedBuffers(cfg, opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			m := res.Metrics["bandwidth_MiBps"]
			b.ReportMetric(m[0], "shared_MiBps")
			b.ReportMetric(m[1], "dedicated_MiBps")
			e := res.Metrics["evictions"]
			b.ReportMetric(e[0], "shared_evictions")
		}
	}
}

// BenchmarkAblationCombine toggles the Fig. 3 ③ combine path (DESIGN.md
// ablation 3).
func BenchmarkAblationCombine(b *testing.B) {
	cfg := config.Paper()
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationCombine(cfg, opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			m := res.Metrics["WAF"]
			b.ReportMetric(m[0], "combine_WAF")
			b.ReportMetric(m[1], "noCombine_WAF")
		}
	}
}

// BenchmarkAblationZoneAggregation compares chunk-only against chunk+zone
// aggregation (DESIGN.md ablation 4).
func BenchmarkAblationZoneAggregation(b *testing.B) {
	cfg := config.Paper()
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationZoneAggregation(cfg, opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			m := res.Metrics["KIOPS"]
			b.ReportMetric(m[0], "chunkOnly_KIOPS")
			b.ReportMetric(m[1], "chunkZone_KIOPS")
		}
	}
}
