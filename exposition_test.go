package conzone

// The grammar every Prometheus exposition of the module obeys, checked on
// whole outputs (the /metrics body of an observed device and the fleet's
// per-cohort exposition), and the instant a /metrics body describes.

import (
	"bytes"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/conzone/conzone/internal/fleet"
)

// promSample matches one sample line: name, optional {labels}, value.
var promSample = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (NaN|[-+]Inf|[-+]?[0-9.eE+-]+)$`)

// expoFamily is one family as checkExposition parsed it.
type expoFamily struct {
	typ     string
	samples int
}

// checkExposition parses a whole exposition and fails the test unless:
// every family has exactly one HELP line, followed directly by its one
// TYPE line; every sample sits in the contiguous block under its family's
// header (a summary's _sum and _count lines included, and its other
// samples carry a quantile); counter names end in _total; and no family
// name is declared twice anywhere in the output.
func checkExposition(t *testing.T, what, body string) map[string]*expoFamily {
	t.Helper()
	fams := map[string]*expoFamily{}
	var cur string
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name := strings.Fields(line)[2]
			if fams[name] != nil {
				t.Fatalf("%s line %d: family %s declared again", what, i+1, name)
			}
			if i+1 == len(lines) || !strings.HasPrefix(lines[i+1], "# TYPE "+name+" ") {
				t.Fatalf("%s line %d: HELP of %s not followed by its TYPE", what, i+1, name)
			}
			i++
			typ := strings.TrimPrefix(lines[i], "# TYPE "+name+" ")
			switch typ {
			case "counter", "gauge", "summary":
			default:
				t.Fatalf("%s line %d: family %s has type %q", what, i+1, name, typ)
			}
			if typ == "counter" && !strings.HasSuffix(name, "_total") {
				t.Fatalf("%s line %d: counter %s does not end in _total", what, i+1, name)
			}
			cur = name
			fams[name] = &expoFamily{typ: typ}
		case strings.HasPrefix(line, "#"):
			t.Fatalf("%s line %d: %q is not a HELP line or the TYPE line after one", what, i+1, line)
		default:
			m := promSample.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("%s line %d: unparseable sample %q", what, i+1, line)
			}
			if cur == "" {
				t.Fatalf("%s line %d: sample %q before any family", what, i+1, line)
			}
			f, name := fams[cur], m[1]
			if f.typ == "summary" && (name == cur+"_sum" || name == cur+"_count") {
				name = cur
			} else if f.typ == "summary" && !strings.Contains(m[2], `quantile="`) {
				t.Fatalf("%s line %d: summary sample %q without a quantile", what, i+1, line)
			}
			if name != cur {
				t.Fatalf("%s line %d: sample %q sits in family %s's block", what, i+1, line, cur)
			}
			f.samples++
		}
	}
	return fams
}

// scrapedDevice is an observed, sampled paper-config device after the
// Fig. 6(b) buffer-conflict workload and a flush: every /metrics section
// has rows, and nothing is queued.
func scrapedDevice(t *testing.T) *Device {
	t.Helper()
	dev, err := Open(PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	dev.EnableObservation(0)
	if err := dev.EnableSampling(2*time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	conflictRounds(t, dev, 1, 3, 48)
	if err := dev.Flush(); err != nil {
		t.Fatal(err)
	}
	return dev
}

// scrape serves one /metrics request through the device's handler.
func scrape(dev *Device) string {
	rec := httptest.NewRecorder()
	dev.ObservabilityHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	return rec.Body.String()
}

// TestExpositionGrammar holds every exposition the module writes to one
// grammar: the whole /metrics body (unified stats, stage telemetry and
// zone heat in one exposition) and the fleet's per-cohort exposition
// (population gauges, the latency summary and the labelled stats).
func TestExpositionGrammar(t *testing.T) {
	t.Run("metrics", func(t *testing.T) {
		fams := checkExposition(t, "/metrics", scrape(scrapedDevice(t)))
		for _, want := range []string{
			"conzone_ftl_host_written_bytes_total", // unified stats
			"conzone_stage_latency_seconds",        // stage telemetry
			"conzone_resource_busy_seconds_total",
			"conzone_zone_fill_frac", // zone heat
			"conzone_slc_sb_valid_frac",
		} {
			if f := fams[want]; f == nil || f.samples == 0 {
				t.Errorf("family %s missing or empty on /metrics", want)
			}
		}
	})
	t.Run("fleet", func(t *testing.T) {
		spec := fleet.DefaultSpec(1, 3)
		res, err := fleet.Run(&spec, fleet.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := res.WriteMetrics(&b); err != nil {
			t.Fatal(err)
		}
		fams := checkExposition(t, "fleet", b.String())
		rows := len(res.Cohorts) + 1
		for name, f := range fams {
			want := rows
			if f.typ == "summary" {
				want = 6 * rows // four quantiles, _sum and _count
			}
			if f.samples != want {
				t.Errorf("fleet family %s has %d samples, want %d", name, f.samples, want)
			}
		}
		if f := fams["conzone_fleet_latency_seconds"]; f == nil || f.typ != "summary" {
			t.Error("fleet latency is not one summary family")
		}
	})
}

// TestScrapeIsOneInstant: a /metrics body describes one instant of the
// device. A writer issues 4 KiB sequential writes, resetting each zone as
// it wraps, while the endpoint is scraped; ftl.Write counts the bytes and
// records the host_write span together, so in every body the byte counter
// must be exactly 4096 x the span count.
func TestScrapeIsOneInstant(t *testing.T) {
	dev, err := Open(PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	dev.EnableObservation(0)
	const zones = 2
	zb := dev.ZoneBytes()
	stop, werr := make(chan struct{}), make(chan error, 1)
	go func() {
		buf := make([]byte, SectorSize)
		for n := int64(0); ; n++ {
			select {
			case <-stop:
				werr <- nil
				return
			default:
			}
			off := n * SectorSize % (zones * zb)
			if off%zb == 0 && n*SectorSize >= zones*zb {
				if err := dev.ResetZone(int(off / zb)); err != nil {
					werr <- err
					return
				}
			}
			if err := dev.Write(off, buf); err != nil {
				werr <- err
				return
			}
		}
	}()

	value := func(body, series string) int64 {
		i := strings.Index(body, "\n"+series+" ")
		if i < 0 {
			return 0 // the stage has no spans yet
		}
		line := body[i+len(series)+2:]
		v, err := strconv.ParseInt(line[:strings.IndexByte(line, '\n')], 10, 64)
		if err != nil {
			t.Errorf("%s: %v", series, err) // not Fatal: the writer must still be stopped
		}
		return v
	}
	const scrapes = 200
	bad, seen := 0, map[int64]bool{}
	for i := 0; i < scrapes; i++ {
		body := scrape(dev)
		written := value(body, "conzone_ftl_host_written_bytes_total")
		spans := value(body, `conzone_stage_spans_total{stage="host_write"}`)
		if written != 4096*spans {
			if bad == 0 {
				t.Errorf("scrape %d: host_written_bytes_total %d, 4096 x host_write spans %d", i, written, 4096*spans)
			}
			bad++
		}
		seen[written] = true
	}
	close(stop)
	if err := <-werr; err != nil {
		t.Fatal(err)
	}
	if bad > 0 {
		t.Errorf("%d of %d /metrics bodies mix instants", bad, scrapes)
	}
	if len(seen) < scrapes/4 {
		t.Fatalf("the writes advanced across only %d of %d scrapes; the check saw no concurrency", len(seen), scrapes)
	}
}
