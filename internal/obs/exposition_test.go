package obs

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/conzone/conzone/internal/stats"
)

func TestExpositionRendersFamilies(t *testing.T) {
	var buf bytes.Buffer
	err := WriteExposition(&buf, func(e *Exposition) {
		e.Family("x_total", "counter", "Things.")
		e.Int(3)
		e.Int(4, "zone", "1", "state", "full")
		e.Family("y_seconds", "summary", "Latency.")
		e.Summary(stats.Summary{Count: 2, Sum: 3 * time.Millisecond, P50: time.Millisecond,
			P95: 2 * time.Millisecond, P99: 2 * time.Millisecond, P999: 2 * time.Millisecond}, "cohort", "a")
	}, func(e *Exposition) {
		e.Family("z", "gauge", "Ratio.")
		e.Float(0.25)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := `# HELP x_total Things.
# TYPE x_total counter
x_total 3
x_total{zone="1",state="full"} 4
# HELP y_seconds Latency.
# TYPE y_seconds summary
y_seconds{cohort="a",quantile="0.5"} 0.001
y_seconds{cohort="a",quantile="0.95"} 0.002
y_seconds{cohort="a",quantile="0.99"} 0.002
y_seconds{cohort="a",quantile="0.999"} 0.002
y_seconds_sum{cohort="a"} 0.003
y_seconds_count{cohort="a"} 2
# HELP z Ratio.
# TYPE z gauge
z 0.25
`
	if got := buf.String(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// TestExpositionRefusesRepeatedFamily: a family declared twice in one
// exposition — in the same section or across two — is an error, and
// nothing is written from the repeat on.
func TestExpositionRefusesRepeatedFamily(t *testing.T) {
	var buf bytes.Buffer
	err := WriteExposition(&buf, func(e *Exposition) {
		e.Family("a_total", "counter", "A.")
		e.Int(1)
	}, func(e *Exposition) {
		e.Family("a_total", "counter", "A again.")
		e.Int(2)
	})
	if err == nil || !strings.Contains(err.Error(), `"a_total" declared twice`) {
		t.Fatalf("err = %v, want a repeated-family error", err)
	}
	if strings.Contains(buf.String(), "A again") || strings.Contains(buf.String(), "a_total 2") {
		t.Fatalf("wrote past the repeat:\n%s", buf.String())
	}
}

func TestExpositionRefusesMisplacedSamples(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteExposition(&buf, func(e *Exposition) { e.Int(1) }); err == nil {
		t.Fatal("a sample before any family was accepted")
	}
	err := WriteExposition(&buf, func(e *Exposition) {
		e.Family("g", "gauge", "G.")
		e.Summary(stats.Summary{})
	})
	if err == nil {
		t.Fatal("a summary in a gauge family was accepted")
	}
}

// failAfter accepts n writes, then fails every later one.
type failAfter struct {
	n, writes int
	err       error
}

func (f *failAfter) Write(p []byte) (int, error) {
	f.writes++
	if f.writes > f.n {
		return 0, f.err
	}
	return len(p), nil
}

// TestExpositionKeepsFirstWriteError: after the first failed write the
// writer stops writing and returns that error.
func TestExpositionKeepsFirstWriteError(t *testing.T) {
	first := errors.New("first")
	w := &failAfter{n: 2, err: first}
	err := WriteExposition(w, func(e *Exposition) {
		e.Family("a_total", "counter", "A.")
		e.Int(1)
		e.Int(2)
		w.err = errors.New("later")
		e.Family("b_total", "counter", "B.")
		e.Int(3)
	})
	if err != first {
		t.Fatalf("err = %v, want the first write error", err)
	}
	if w.writes != 3 {
		t.Fatalf("%d writes attempted, want 3 (none after the failure)", w.writes)
	}
}
