package experiments

import (
	"bytes"
	"flag"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/units"
)

// The experiment tests run the Quick() scale against the paper
// configuration and assert the paper's qualitative shapes. The bench
// harness (bench_test.go at the repo root) runs the full scale.

func TestTable1(t *testing.T) {
	rows := RunTable1()
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.ThisRepo != r.ConZone {
			t.Errorf("feature %q: repo column %q != ConZone %q", r.Feature, r.ThisRepo, r.ConZone)
		}
	}
}

func TestTable2MatchesTimingModel(t *testing.T) {
	rows, err := RunTable2(config.Paper())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	if err := VerifyTable2(rows); err != nil {
		t.Error(err)
	}
}

func TestFig6aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	res, err := RunFig6a(config.Paper(), Quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range res.Checks {
		t.Log(line)
	}
	for _, r := range res.Rows {
		t.Logf("%-14s writeST=%.0f writeMT=%.0f readST=%.0f readMT=%.0f (MiB/s)",
			r.Series, r.WriteST, r.WriteMT, r.ReadST, r.ReadMT)
	}
	if !res.Pass {
		t.Error("fig6a claims not reproduced")
	}
}

func TestFig6bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	res, err := RunFig6b(config.Paper(), Quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range res.Checks {
		t.Log(line)
	}
	t.Logf("conflict: %.0f MiB/s WAF %.3f evictions %d; no-conflict: %.0f MiB/s WAF %.3f evictions %d",
		res.ConflictBW, res.ConflictWAF, res.ConflictEvictions,
		res.NoConflictBW, res.NoConflictWAF, res.NoConflictEvictions)
	if res.ConflictEvictions == 0 {
		t.Error("conflict run produced no premature flushes")
	}
	if res.NoConflictEvictions != 0 {
		t.Error("no-conflict run evicted buffers")
	}
	if !res.Pass {
		t.Error("fig6b claims not reproduced")
	}
}

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	res, err := RunFig7(config.Paper(), Quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		t.Logf("%-6s range=%-8s KIOPS=%.1f p99=%v miss=%.1f%%",
			p.Mapping, units.FormatBytes(p.Range), p.KIOPS, p.P99, p.MissRatio*100)
	}
	for _, line := range res.Checks {
		t.Log(line)
	}
	if !res.Pass {
		t.Error("fig7 claims not reproduced")
	}
}

func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	res, err := RunFig8(config.Paper(), Quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		t.Logf("%-8s KIOPS=%.1f p99=%v miss=%.1f%%", p.Strategy, p.KIOPS, p.P99, p.MissRatio*100)
	}
	for _, line := range res.Checks {
		t.Log(line)
	}
	if !res.Pass {
		t.Error("fig8 claims not reproduced")
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	cfg := config.Paper()
	opt := Quick()

	chanBW, err := RunAblationChannelBW(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%+v", chanBW.Metrics)
	if w := chanBW.Metrics["writeMT_MiBps"]; w[1] <= w[0] {
		t.Errorf("unthrottled channel should not be slower: %v", w)
	}

	bufs, err := RunAblationDedicatedBuffers(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%+v", bufs.Metrics)
	if e := bufs.Metrics["evictions"]; e[0] == 0 || e[1] != 0 {
		t.Errorf("dedicated buffers should remove evictions: %v", e)
	}
	if b := bufs.Metrics["bandwidth_MiBps"]; b[1] <= b[0] {
		t.Errorf("dedicated buffers should be faster: %v", b)
	}

	comb, err := RunAblationCombine(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%+v", comb.Metrics)
	if c := comb.Metrics["combines"]; c[0] == 0 || c[1] != 0 {
		t.Errorf("combine toggle broken: %v", c)
	}

	zagg, err := RunAblationZoneAggregation(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%+v", zagg.Metrics)
	if m := zagg.Metrics["miss_ratio"]; m[1] >= m[0] {
		t.Errorf("zone aggregation should reduce misses: %v", m)
	}

	l2plog, err := RunAblationL2PLog(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%+v", l2plog.Metrics)
	if fl := l2plog.Metrics["log_flushes"]; fl[0] != 0 || fl[1] == 0 {
		t.Errorf("log flush counts wrong: %v", fl)
	}
	if bw := l2plog.Metrics["bandwidth_MiBps"]; bw[1] > bw[0] {
		t.Errorf("persistence should not be free: %v", bw)
	}
}

func TestEmulatorComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	rows, err := RunEmulatorComparison(config.Paper(), Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		t.Logf("%-8s writeBW=%.0f MiB/s randread=%.1f KIOPS premature=%v slc=%v l2p=%v",
			r.Emulator, r.WriteBW, r.RandReadKIOPS,
			r.ModelsPrematureFlush, r.ModelsSLC, r.ModelsL2PCache)
		if r.Emulator == "ConZone" {
			if !r.ModelsPrematureFlush || !r.ModelsSLC || !r.ModelsL2PCache {
				t.Error("ConZone must model all Table-I capabilities")
			}
		} else if r.ModelsPrematureFlush || r.ModelsSLC || r.ModelsL2PCache {
			t.Errorf("%s claims consumer internals it lacks", r.Emulator)
		}
	}
}

// TestF2FSDefault holds the f2fs claim at Default() scale, 64 MiB per arm;
// TestRegistry holds it, and pins the rendered report, at Quick().
func TestF2FSDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	rep, err := runF2FS(config.Paper(), Default())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Tables[0].Rows {
		t.Log(strings.Join(row, "  "))
	}
	if !rep.Pass {
		t.Errorf("f2fs claims not reproduced at Default():\n%s", strings.Join(rep.Checks, "\n"))
	}
}

// TestRegistry runs every entry of the registry at Quick() scale on the paper
// configuration: whatever conzone-bench can print, this has evaluated. An
// entry declares its artifact keys sorted.
// virtualTimeGolden holds every registry Report at Quick() on config.Paper(),
// rendered by Report.Print in registry order: the virtual-time output a
// refactor must leave byte-identical. -update rewrites it.
const virtualTimeGolden = "../../testdata/virtual_time.golden"

var update = flag.Bool("update", false, "TestRegistry rewrites "+virtualTimeGolden)

func TestRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	var rendered bytes.Buffer
	var suite []string
	seen := map[string]bool{}
	for _, e := range All(1) {
		if seen[e.Name] {
			t.Errorf("experiment name %q registered twice", e.Name)
		}
		seen[e.Name] = true
		if e.InSuite {
			suite = append(suite, e.Name)
		}
		rep, err := e.Run(config.Paper(), Quick())
		if err != nil {
			t.Errorf("%s: %v", e.Name, err)
			continue
		}
		if !rep.Pass {
			t.Errorf("%s: claims not reproduced:\n%s", e.Name, strings.Join(rep.Checks, "\n"))
		}
		if err := rep.Print(&rendered); err != nil {
			t.Fatal(err)
		}
		lines := 0 // rows and notes: metrics reports in notes only
		for _, tab := range rep.Tables {
			lines += len(tab.Rows) + len(tab.Notes)
		}
		if rep.Title == "" || lines == 0 {
			t.Errorf("%s: report has title %q and %d table rows and notes", e.Name, rep.Title, lines)
		}
		var arts []string
		for name := range rep.Artifacts {
			arts = append(arts, name)
		}
		sort.Strings(arts)
		if !reflect.DeepEqual(arts, e.Artifacts) {
			t.Errorf("%s: report carries artifacts %v, the entry declares %v", e.Name, arts, e.Artifacts)
		}
	}
	if want := "table1 table2 fig6a fig6b fig7 fig8 ablations emulators"; strings.Join(suite, " ") != want {
		t.Errorf("suite order = %v, want %s", suite, want)
	}
	compareGolden(t, rendered.Bytes())
}

// compareGolden holds the rendered registry to virtualTimeGolden, or
// rewrites the file under -update. A mismatch names every report whose
// text moved and the first line that differs.
func compareGolden(t *testing.T, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(virtualTimeGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	// The file holds on every target: virtual time is integer nanoseconds,
	// and CI fails if the compiler fuses a multiply-add (one rounding instead
	// of two) in any non-test package on arm64, ppc64le or s390x.
	want, err := os.ReadFile(virtualTimeGolden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotReports, wantReports := reportTexts(string(got)), reportTexts(string(want))
	var moved []string
	for title, text := range wantReports {
		if gotReports[title] != text {
			moved = append(moved, title)
		}
	}
	for title := range gotReports {
		if _, ok := wantReports[title]; !ok {
			moved = append(moved, title)
		}
	}
	sort.Strings(moved)
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	line := 0
	for line < len(gotLines) && line < len(wantLines) && gotLines[line] == wantLines[line] {
		line++
	}
	g, w := "<end>", "<end>"
	if line < len(gotLines) {
		g = gotLines[line]
	}
	if line < len(wantLines) {
		w = wantLines[line]
	}
	t.Fatalf("registry output differs from %s (go test -run TestRegistry -update rewrites it); reports that moved: %s\nfirst difference, line %d:\n got %q\nwant %q",
		virtualTimeGolden, strings.Join(moved, "; "), line+1, g, w)
}

// reportTexts splits rendered reports by their "=== title ===" lines.
func reportTexts(rendered string) map[string]string {
	texts := map[string]string{}
	for _, rep := range strings.Split(rendered, "\n=== ")[1:] {
		title, _, _ := strings.Cut(rep, " ===\n")
		texts[title] = rep
	}
	return texts
}
