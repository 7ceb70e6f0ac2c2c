package stats

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Error("empty histogram should report zeros")
	}
	if h.Percentile(50) != 0 {
		t.Error("empty percentile should be 0")
	}
}

func TestHistogramSingle(t *testing.T) {
	h := NewHistogram()
	h.Record(50 * time.Microsecond)
	if h.Count() != 1 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Min() != 50*time.Microsecond || h.Max() != 50*time.Microsecond {
		t.Errorf("min/max = %v/%v", h.Min(), h.Max())
	}
	p := h.Percentile(99)
	if p < 50*time.Microsecond || p > 55*time.Microsecond {
		t.Errorf("p99 = %v, want ~50us", p)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Record(-time.Second)
	if h.Min() != 0 {
		t.Errorf("negative should clamp to 0, min=%v", h.Min())
	}
}

func TestHistogramPercentileAccuracy(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(1))
	var all []time.Duration
	for i := 0; i < 10000; i++ {
		d := time.Duration(rng.Intn(1000)) * time.Microsecond
		all = append(all, d)
		h.Record(d)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for _, p := range []float64{50, 90, 99} {
		exact := all[int(p/100*float64(len(all)))-1]
		got := h.Percentile(p)
		// Log-bucketed histograms guarantee bounded relative error.
		lo := time.Duration(float64(exact) * 0.9)
		hi := time.Duration(float64(exact)*1.1) + 2*time.Microsecond
		if got < lo || got > hi {
			t.Errorf("p%v = %v, exact %v (allowed [%v,%v])", p, got, exact, lo, hi)
		}
	}
}

func TestHistogramPercentileMonotone(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		h.Record(time.Duration(rng.Intn(100000)) * time.Microsecond)
	}
	prev := time.Duration(0)
	for p := 1.0; p <= 100; p += 1 {
		v := h.Percentile(p)
		if v < prev {
			t.Fatalf("percentile not monotone at p=%v: %v < %v", p, v, prev)
		}
		prev = v
	}
}

func TestHistogramPercentileBoundedByMax(t *testing.T) {
	f := func(raw []uint16) bool {
		h := NewHistogram()
		for _, v := range raw {
			h.Record(time.Duration(v) * time.Microsecond)
		}
		if h.Count() == 0 {
			return true
		}
		for _, p := range []float64{0.1, 50, 99, 99.9, 100} {
			v := h.Percentile(p)
			if v > h.Max() || v < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramMeanSum(t *testing.T) {
	h := NewHistogram()
	h.Record(10 * time.Microsecond)
	h.Record(30 * time.Microsecond)
	if h.Sum() != 40*time.Microsecond {
		t.Errorf("Sum = %v", h.Sum())
	}
	if h.Mean() != 20*time.Microsecond {
		t.Errorf("Mean = %v", h.Mean())
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Record(10 * time.Microsecond)
	b.Record(1000 * time.Microsecond)
	a.Merge(b)
	if a.Count() != 2 {
		t.Errorf("Count = %d", a.Count())
	}
	if a.Min() != 10*time.Microsecond || a.Max() != 1000*time.Microsecond {
		t.Errorf("min/max = %v/%v", a.Min(), a.Max())
	}
}

func TestHistogramMergeEmpty(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Record(5 * time.Microsecond)
	a.Merge(b) // merging empty must not disturb min
	if a.Min() != 5*time.Microsecond {
		t.Errorf("min = %v", a.Min())
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Record(time.Millisecond)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 || h.Percentile(50) != 0 {
		t.Error("Reset incomplete")
	}
	h.Record(time.Microsecond)
	if h.Count() != 1 {
		t.Error("histogram unusable after Reset")
	}
}

func TestSummary(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	s := h.Summarize()
	if s.Count != 100 {
		t.Errorf("Count = %d", s.Count)
	}
	if s.P50 < 45*time.Microsecond || s.P50 > 60*time.Microsecond {
		t.Errorf("P50 = %v", s.P50)
	}
	if s.String() == "" {
		t.Error("String empty")
	}
}

func TestHistogramLargeValues(t *testing.T) {
	h := NewHistogram()
	h.Record(10 * time.Second)
	if h.Max() != 10*time.Second {
		t.Errorf("Max = %v", h.Max())
	}
	p := h.Percentile(99)
	if p != 10*time.Second { // clamped to max
		t.Errorf("p99 = %v", p)
	}
}

// TestHistogramPercentileBoundedByMin pins the clamp on the other side of
// the bucket approximation: percentile estimates must never fall below the
// smallest recorded observation.
func TestHistogramPercentileBoundedByMin(t *testing.T) {
	// A single mid-bucket observation: its sub-bucket's representative
	// value truncates to 1µs, below the observation itself.
	h := NewHistogram()
	h.Record(1500 * time.Nanosecond)
	for _, p := range []float64{0.1, 50, 99, 100} {
		if v := h.Percentile(p); v < h.Min() || v > h.Max() {
			t.Errorf("P%v = %v outside [%v, %v]", p, v, h.Min(), h.Max())
		}
	}
	if got := h.Percentile(50); got != 1500*time.Nanosecond {
		t.Errorf("single-observation P50 = %v, want the observation itself", got)
	}

	// Identical observations: every percentile is that value.
	h2 := NewHistogram()
	for i := 0; i < 100; i++ {
		h2.Record(3100 * time.Nanosecond)
	}
	for _, p := range []float64{1, 50, 99.9} {
		if v := h2.Percentile(p); v != 3100*time.Nanosecond {
			t.Errorf("uniform P%v = %v, want 3.1µs", p, v)
		}
	}

	// Mixed observations stay within the true range.
	h3 := NewHistogram()
	h3.Record(2500 * time.Nanosecond)
	h3.Record(900 * time.Microsecond)
	for _, p := range []float64{0.1, 10, 50, 90, 99.9} {
		if v := h3.Percentile(p); v < h3.Min() || v > h3.Max() {
			t.Errorf("P%v = %v outside [%v, %v]", p, v, h3.Min(), h3.Max())
		}
	}
}
