package main

import (
	"encoding/json"
	"fmt"
	"os"
	"text/tabwriter"
)

// loadBaseline reads a committed selfbench report (the BENCH_emulator.json
// schema) for -compare.
func loadBaseline(path string) (*selfBenchReport, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep selfBenchReport
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(rep.Results) == 0 {
		return nil, fmt.Errorf("%s holds no benchmark results", path)
	}
	return &rep, nil
}

// compareReports prints the fresh run next to the baseline — ns/op and
// MiB/s with signed percentage deltas — and returns an error naming every
// benchmark whose ns/op regressed by more than regressPct percent, so CI
// can gate on the exit status. Benchmarks present on only one side are
// reported but never fail the comparison (the families may drift across
// PRs); allocation growth on a zero-alloc baseline entry is called out
// alongside the timing columns.
func compareReports(cur, base *selfBenchReport, regressPct float64) error {
	fmt.Printf("\nbaseline: %s (%s %s/%s)\n", base.Date, base.GoVersion, base.GOOS, base.GOARCH)
	fmt.Printf("current:  %s (%s %s/%s)  regression threshold %.1f%%\n\n",
		cur.Date, cur.GoVersion, cur.GOOS, cur.GOARCH, regressPct)

	byName := make(map[string]selfBenchResult, len(base.Results))
	for _, r := range base.Results {
		byName[r.Name] = r
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tbase ns/op\tns/op\tΔns/op\tbase MiB/s\tMiB/s\tΔMiB/s\tverdict")
	var regressed []string
	matched := 0
	for _, r := range cur.Results {
		b, ok := byName[r.Name]
		if !ok {
			fmt.Fprintf(tw, "%s\t-\t%.1f\t-\t-\t%.1f\t-\tnew\n", r.Name, r.NsPerOp, r.MiBPerSec)
			continue
		}
		matched++
		delete(byName, r.Name)
		dns := pctDelta(r.NsPerOp, b.NsPerOp)
		dmib := pctDelta(r.MiBPerSec, b.MiBPerSec)
		verdict := "ok"
		switch {
		case dns > regressPct:
			verdict = "REGRESSED"
			regressed = append(regressed, fmt.Sprintf("%s (+%.1f%% ns/op)", r.Name, dns))
		case dns < -regressPct:
			verdict = "improved"
		}
		if b.AllocsPerOp == 0 && r.AllocsPerOp > 0 {
			verdict += " +allocs"
			regressed = append(regressed, fmt.Sprintf("%s (%d allocs/op on a zero-alloc baseline)", r.Name, r.AllocsPerOp))
		}
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%+.1f%%\t%.1f\t%.1f\t%+.1f%%\t%s\n",
			r.Name, b.NsPerOp, r.NsPerOp, dns, b.MiBPerSec, r.MiBPerSec, dmib, verdict)
	}
	for _, b := range base.Results { // baseline order: map order would vary run to run
		if _, ok := byName[b.Name]; ok {
			fmt.Fprintf(tw, "%s\t%.1f\t-\t-\t%.1f\t-\t-\tmissing\n", b.Name, b.NsPerOp, b.MiBPerSec)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if matched == 0 {
		return fmt.Errorf("no benchmark names in common with the baseline")
	}
	if len(regressed) > 0 {
		return fmt.Errorf("%d benchmark(s) beyond the %.1f%% threshold: %v", len(regressed), regressPct, regressed)
	}
	fmt.Printf("\nall %d matched benchmarks within %.1f%%\n", matched, regressPct)
	return nil
}

func pctDelta(cur, base float64) float64 {
	if base == 0 {
		return 0
	}
	return (cur - base) / base * 100
}
