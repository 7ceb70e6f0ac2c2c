package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/units"
)

// Table is one aligned block of a Report. A Table without header and rows
// prints only its caption and notes.
type Table struct {
	// Caption is a line above the block, set off by a blank line.
	Caption string
	Header  []string
	Rows    [][]string
	// Notes are lines under the block; an empty note is a blank line.
	Notes []string
}

// Add appends a row, each cell rendered the way fmt.Sprint renders it.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	t.Rows = append(t.Rows, row)
}

// Report is what an experiment measured, as text ready to print: the only
// form in which the tool states a result, so every claim it prints was
// evaluated by whoever holds the Report.
type Report struct {
	Title  string
	Tables []Table
	// Checks are the claim lines under the tables. Experiments whose claims
	// are the paper's list every one with its verdict; the others state a
	// claim that held as a note and list only the ones that did not.
	Checks []string
	// Pass is whether every claim held.
	Pass bool
	// Artifacts are the machine-readable outputs a caller may ask to have
	// written somewhere, keyed by the conzone-bench path flag that asks.
	Artifacts map[string]func(io.Writer) error
}

// Print is the one printer: every experiment's Report takes this shape, on
// conzone-bench's stdout and wherever else a Report is rendered.
func (r Report) Print(w io.Writer) error {
	fmt.Fprintf(w, "\n=== %s ===\n", r.Title)
	for _, t := range r.Tables {
		if t.Caption != "" {
			fmt.Fprintf(w, "\n%s\n", t.Caption)
		}
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		if t.Header != nil {
			fmt.Fprintln(tw, strings.Join(t.Header, "\t"))
		}
		for _, row := range t.Rows {
			fmt.Fprintln(tw, strings.Join(row, "\t"))
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		for _, n := range t.Notes {
			fmt.Fprintln(w, n)
		}
	}
	for _, c := range r.Checks {
		fmt.Fprintln(w, " ", c)
	}
	switch {
	case !r.Pass:
		fmt.Fprintln(w, "  => SOME CLAIMS NOT REPRODUCED")
	case len(r.Checks) > 0:
		fmt.Fprintln(w, "  => paper claims reproduced")
	}
	return nil
}

// JSON is the artifact that writes v as indented JSON.
func JSON(v any) func(io.Writer) error {
	return func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	}
}

// fail records a claim that did not hold.
func (r *Report) fail(format string, args ...any) {
	r.Checks = append(r.Checks, fmt.Sprintf(format, args...)+" [FAIL]")
	r.Pass = false
}

// Experiment is one named entry of the evaluation.
type Experiment struct {
	Name string
	// InSuite marks the entries that "all" runs, in registry order.
	InSuite bool
	// Artifacts are the keys the Report's Artifacts will have, so a caller
	// can refuse an output path nothing will fill before running anything.
	Artifacts []string
	Run       func(config.DeviceConfig, Options) (Report, error)
}

// All returns every experiment this package can run: the paper's tables and
// figures first, in the order of §IV, then the characterizations of what
// this reproduction adds, then the two that drive the public conzone.Device
// to show its telemetry (metrics, timeseries), and last the paper's
// motivating file system on that Device (f2fs). faultSeed
// seeds the two entries that inject faults (faults, crash); the others
// ignore it.
func All(faultSeed uint64) []Experiment {
	return []Experiment{
		{Name: "table1", InSuite: true, Run: func(config.DeviceConfig, Options) (Report, error) {
			return reportTable1(RunTable1()), nil
		}},
		{Name: "table2", InSuite: true, Run: typed(func(cfg config.DeviceConfig, _ Options) ([]Table2Row, error) {
			return RunTable2(cfg)
		}, reportTable2)},
		{Name: "fig6a", InSuite: true, Run: typed(RunFig6a, reportFig6a)},
		{Name: "fig6b", InSuite: true, Run: typed(RunFig6b, reportFig6b)},
		{Name: "fig7", InSuite: true, Run: typed(RunFig7, reportFig7)},
		{Name: "fig8", InSuite: true, Run: typed(RunFig8, reportFig8)},
		{Name: "ablations", InSuite: true, Run: reportAblations},
		{Name: "emulators", InSuite: true, Run: typed(RunEmulatorComparison, reportEmulators)},
		{Name: "qd", Artifacts: []string{"metrics-json"}, Run: runQDSweep},
		{Name: "faults", Run: func(cfg config.DeviceConfig, opt Options) (Report, error) {
			return runFaults(cfg, opt, faultSeed)
		}},
		{Name: "crash", Run: func(_ config.DeviceConfig, opt Options) (Report, error) {
			return runCrash(opt, faultSeed), nil
		}},
		{Name: "zonelife", Run: runZoneLife},
		{Name: "metrics", Artifacts: []string{"chrome", "metrics-json"}, Run: runMetrics},
		{Name: "timeseries", Artifacts: []string{"series-csv", "series-jsonl"}, Run: runTimeseries},
		{Name: "f2fs", Run: runF2FS},
	}
}

// typed makes a registry entry of a Run function that returns its own result
// type (the form bench/ and the root benchmarks call) and the pure function
// that lays that result out as a Report.
func typed[R any](run func(config.DeviceConfig, Options) (R, error), report func(R) Report) func(config.DeviceConfig, Options) (Report, error) {
	return func(cfg config.DeviceConfig, opt Options) (Report, error) {
		res, err := run(cfg, opt)
		if err != nil {
			return Report{}, err
		}
		return report(res), nil
	}
}

func reportTable1(rows []Table1Row) Report {
	t := Table{Header: []string{"Feature", "FEMU", "ConfZNS", "NVMeVirt", "ConZone", "this repo"}}
	for _, r := range rows {
		t.Add(r.Feature, r.FEMU, r.ConfZNS, r.NVMeVirt, r.ConZone, r.ThisRepo)
	}
	return Report{Title: "Table I: emulator capabilities", Tables: []Table{t}, Pass: true}
}

func reportTable2(rows []Table2Row) Report {
	t := Table{Header: []string{"Media", "Op", "paper", "measured", "of which transfer"}}
	for _, r := range rows {
		t.Add(r.Media, r.Op, r.Paper, r.Measured, r.TransferOverhead)
	}
	rep := Report{Title: "Table II: media latencies", Pass: true}
	if err := VerifyTable2(rows); err != nil {
		rep.fail("%v", err)
	} else {
		t.Notes = []string{"timing model matches Table II exactly (plus stated transfers)"}
	}
	rep.Tables = []Table{t}
	return rep
}

func reportFig6a(res Fig6aResult) Report {
	t := Table{Header: []string{"Series", "write ST", "write MT", "read ST", "read MT"}}
	for _, r := range res.Rows {
		t.Add(r.Series, f0(r.WriteST), f0(r.WriteMT), f0(r.ReadST), f0(r.ReadMT))
	}
	return Report{Title: "Fig. 6(a): 512 KiB sequential bandwidth (MiB/s)",
		Tables: []Table{t}, Checks: res.Checks, Pass: res.Pass}
}

func reportFig6b(res Fig6bResult) Report {
	t := Table{Header: []string{"Case", "bandwidth MiB/s", "WAF", "buffer evictions"}}
	t.Add("conflict (same parity)", f0(res.ConflictBW), f3(res.ConflictWAF), res.ConflictEvictions)
	t.Add("no conflict", f0(res.NoConflictBW), f3(res.NoConflictWAF), res.NoConflictEvictions)
	return Report{Title: "Fig. 6(b): write-buffer conflicts (48 KiB dual-zone writes)",
		Tables: []Table{t}, Checks: res.Checks, Pass: res.Pass}
}

func reportFig7(res Fig7Result) Report {
	t := Table{Header: []string{"Mapping", "range", "KIOPS", "p99", "L2P miss"}}
	for _, p := range res.Points {
		t.Add(p.Mapping, units.FormatBytes(p.Range), f1(p.KIOPS), p.P99, pct(p.MissRatio))
	}
	return Report{Title: "Fig. 7: mapping mechanisms under 4 KiB random reads",
		Tables: []Table{t}, Checks: res.Checks, Pass: res.Pass}
}

func reportFig8(res Fig8Result) Report {
	t := Table{Header: []string{"Strategy", "KIOPS", "p99", "miss rate"}}
	for _, p := range res.Points {
		t.Add(p.Strategy, f1(p.KIOPS), p.P99, pct(p.MissRatio))
	}
	return Report{Title: "Fig. 8: L2P search strategies at ~27.4% miss rate",
		Tables: []Table{t}, Checks: res.Checks, Pass: res.Pass}
}

func reportAblations(cfg config.DeviceConfig, opt Options) (Report, error) {
	rep := Report{Title: "Ablations (DESIGN.md §5)", Pass: true}
	for _, run := range []func(config.DeviceConfig, Options) (AblationResult, error){
		RunAblationChannelBW,
		RunAblationDedicatedBuffers,
		RunAblationCombine,
		RunAblationZoneAggregation,
		RunAblationL2PLog,
	} {
		res, err := run(cfg, opt)
		if err != nil {
			return Report{}, err
		}
		t := Table{
			Caption: fmt.Sprintf("%s: %s -> %s", res.Name, res.Baseline, res.Variant),
			Header:  []string{"metric", "baseline", "variant"},
		}
		names := make([]string, 0, len(res.Metrics))
		for k := range res.Metrics {
			names = append(names, k)
		}
		sort.Strings(names) // map order would make two runs' tables differ
		for _, k := range names {
			v := res.Metrics[k]
			t.Add(k, f3(v[0]), f3(v[1]))
		}
		rep.Tables = append(rep.Tables, t)
	}
	return rep, nil
}

func reportEmulators(rows []EmulatorRow) Report {
	rep := Report{Title: "Table I, dynamically: the emulators on a consumer workload", Pass: true}
	t := Table{Header: []string{"Emulator", "conflict write MiB/s", "randread KIOPS", "premature flushes", "SLC path", "L2P cache"}}
	yn := map[bool]string{true: "yes", false: "no"}
	for _, r := range rows {
		t.Add(r.Emulator, f0(r.WriteBW), f1(r.RandReadKIOPS), yn[r.ModelsPrematureFlush], yn[r.ModelsSLC], yn[r.ModelsL2PCache])
		ok := !r.ModelsPrematureFlush && !r.ModelsSLC && !r.ModelsL2PCache
		if r.Emulator == "ConZone" {
			ok = r.ModelsPrematureFlush && r.ModelsSLC && r.ModelsL2PCache
		}
		if !ok {
			rep.fail("%s registers the wrong consumer-specific internals (paper Table I: ConZone all three, the others none)", r.Emulator)
		}
	}
	if rep.Pass {
		t.Notes = []string{"only ConZone registers the consumer-specific internals (paper Table I)"}
	}
	rep.Tables = []Table{t}
	return rep
}

func f0(v float64) string  { return fmt.Sprintf("%.0f", v) }
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
