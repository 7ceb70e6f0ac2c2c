package telemetry

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"github.com/conzone/conzone/internal/obs"
)

func TestAddSumsCountersRecomputesRatios(t *testing.T) {
	a, b := mkStats(1), mkStats(3)
	a.Occupancy.ReadOnly = false
	b.Occupancy.ReadOnly = true

	m := Add(a, b)
	if m.FTL.HostWrittenBytes != 4000 || m.NAND.BytesProgrammed != 6000 {
		t.Fatalf("counters not summed: %+v", m.FTL)
	}
	if m.Cache.Hits != 120 || m.Cache.Misses != 40 {
		t.Fatalf("cache counters not summed: %+v", m.Cache)
	}
	if m.FTL.RetiredSuperblocks != 4 || m.PowerCuts != 4 || m.Recoveries != 4 {
		t.Fatal("top-level counters not summed")
	}
	if m.Occupancy.BufferedSectors != 20 {
		t.Fatal("occupancy gauges not summed")
	}
	if !m.Occupancy.ReadOnly {
		t.Fatal("ReadOnly must OR across devices")
	}
	// Ratios recomputed from the sums, not averaged.
	if want := 6000.0 / 4000.0; m.WAF != want {
		t.Fatalf("WAF = %v, want %v", m.WAF, want)
	}
	if want := 40.0 / 160.0; m.L2PMissRatio != want {
		t.Fatalf("L2PMissRatio = %v, want %v", m.L2PMissRatio, want)
	}
}

// TestFoldCoversEveryField gives every numeric field of two snapshots a
// value of its own and checks Delta and Add field by field: Delta subtracts
// every counter, copies the occupancy block and recomputes both ratios; Add
// sums every integer, ORs the booleans and recomputes both ratios. A field
// the fold skipped, or folded into its neighbour, fails here by name.
func TestFoldCoversEveryField(t *testing.T) {
	var a, b Stats
	var n int64
	var fill func(va, vb reflect.Value)
	fill = func(va, vb reflect.Value) {
		switch va.Kind() {
		case reflect.Struct:
			for i := 0; i < va.NumField(); i++ {
				fill(va.Field(i), vb.Field(i))
			}
		case reflect.Int, reflect.Int64:
			n++
			va.SetInt(1000 + 7*n*n)
			vb.SetInt(n)
		case reflect.Float64: // stale ratios the fold must overwrite
			va.SetFloat(-1)
			vb.SetFloat(-2)
		case reflect.Bool:
			vb.SetBool(true)
		}
	}
	fill(reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem())
	d, sum := a.Delta(b), Add(a, b)

	ints, bools := 0, 0
	var check func(path string, va, vb, vd, vs reflect.Value, occupancy bool)
	check = func(path string, va, vb, vd, vs reflect.Value, occupancy bool) {
		switch va.Kind() {
		case reflect.Struct:
			for i := 0; i < va.NumField(); i++ {
				check(path+"."+va.Type().Field(i).Name, va.Field(i), vb.Field(i), vd.Field(i), vs.Field(i),
					occupancy || va.Type() == reflect.TypeOf(Occupancy{}))
			}
		case reflect.Int, reflect.Int64:
			ints++
			want := va.Int() - vb.Int()
			if occupancy {
				want = va.Int()
			}
			if vd.Int() != want {
				t.Errorf("Delta%s = %d, want %d", path, vd.Int(), want)
			}
			if vs.Int() != va.Int()+vb.Int() {
				t.Errorf("Add%s = %d, want %d", path, vs.Int(), va.Int()+vb.Int())
			}
		case reflect.Bool:
			bools++
			if vd.Bool() != va.Bool() {
				t.Errorf("Delta%s = %v, want the current %v", path, vd.Bool(), va.Bool())
			}
			if !vs.Bool() {
				t.Errorf("Add%s = false, want false OR true", path)
			}
		}
	}
	check("", reflect.ValueOf(a), reflect.ValueOf(b), reflect.ValueOf(d), reflect.ValueOf(sum), false)
	if ints < 40 || bools == 0 {
		t.Fatalf("walked %d integer and %d boolean fields; the fill missed the struct", ints, bools)
	}
	for _, s := range []struct {
		name string
		st   Stats
	}{{"Delta", d}, {"Add", sum}} {
		waf := float64(s.st.NAND.BytesProgrammed) / float64(s.st.FTL.HostWrittenBytes)
		miss := float64(s.st.Cache.Misses) / float64(s.st.Cache.Hits+s.st.Cache.Misses)
		if s.st.WAF != waf || s.st.L2PMissRatio != miss {
			t.Errorf("%s ratios = WAF %v, miss %v; want %v and %v from its counters", s.name, s.st.WAF, s.st.L2PMissRatio, waf, miss)
		}
	}
}

func TestAddZeroIdentity(t *testing.T) {
	var zero Stats
	s := mkStats(5)
	s.WAF = 1.5
	s.L2PMissRatio = 0.25
	got := Add(s, zero)
	if got != s {
		t.Fatalf("Add(s, zero) changed s:\n%+v\n%+v", s, got)
	}
	if got = Add(zero, s); got != s {
		t.Fatalf("Add(zero, s) != s:\n%+v\n%+v", s, got)
	}
}

func TestSumOrderIndependent(t *testing.T) {
	snaps := []Stats{mkStats(1), mkStats(2), mkStats(7)}
	fwd := Sum(snaps)
	rev := Sum([]Stats{snaps[2], snaps[1], snaps[0]})
	if fwd != rev {
		t.Fatalf("Sum depends on order:\n%+v\n%+v", fwd, rev)
	}
}

// TestExposeStatsGroupsByMetric checks the multi-cohort exposition stays
// valid: exactly one HELP/TYPE header per metric, with one labelled sample
// per set under it, in set order.
func TestExposeStatsGroupsByMetric(t *testing.T) {
	var buf bytes.Buffer
	err := obs.WriteExposition(&buf, func(e *obs.Exposition) {
		ExposeStats(e, "cohort", []string{"fresh", "worn"}, mkStats(1), mkStats(2))
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	if n := strings.Count(out, "# HELP conzone_ftl_host_written_bytes_total"); n != 1 {
		t.Fatalf("%d HELP headers for one metric", n)
	}
	for _, want := range []string{
		`conzone_ftl_host_written_bytes_total{cohort="fresh"} 1000`,
		`conzone_ftl_host_written_bytes_total{cohort="worn"} 2000`,
		`conzone_cache_hits_total{cohort="fresh"} 30`,
		`conzone_cache_hits_total{cohort="worn"} 60`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
	// Samples of one metric must sit adjacent under its single header —
	// scrape parsers reject interleaved families.
	fresh := strings.Index(out, `conzone_ftl_host_written_bytes_total{cohort="fresh"}`)
	worn := strings.Index(out, `conzone_ftl_host_written_bytes_total{cohort="worn"}`)
	if fresh == -1 || worn == -1 || worn < fresh {
		t.Fatal("labelled samples missing or out of set order")
	}
	if between := out[fresh:worn]; strings.Contains(between, "# HELP") {
		t.Fatal("another metric's header interleaves one family's samples")
	}
}

// TestWritePrometheusSingleUnlabeledUnchanged pins that a single device's
// unlabeled exposition is the one-set, label-free case of ExposeStats and
// keeps the sample format scrapes and the CI greps depend on.
func TestWritePrometheusSingleUnlabeledUnchanged(t *testing.T) {
	s := mkStats(2)
	var direct, viaSets bytes.Buffer
	if err := obs.WriteExposition(&direct, s.Expose); err != nil {
		t.Fatal(err)
	}
	err := obs.WriteExposition(&viaSets, func(e *obs.Exposition) {
		ExposeStats(e, "", nil, s)
	})
	if err != nil {
		t.Fatal(err)
	}
	if direct.String() != viaSets.String() {
		t.Fatal("single unlabeled exposition differs from the one-set ExposeStats path")
	}
	out := direct.String()
	for _, want := range []string{
		"# HELP conzone_ftl_host_written_bytes_total Unified device snapshot field conzone_ftl_host_written_bytes_total.\n",
		"# TYPE conzone_ftl_host_written_bytes_total counter\n",
		"conzone_ftl_host_written_bytes_total 2000\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("unlabeled exposition format changed: missing %q", want)
		}
	}
	if strings.Contains(out, "{") {
		t.Fatal("unlabeled exposition carries a label set")
	}
}
