// Package stats provides the measurement primitives used across the
// emulator: latency histograms with percentile queries, throughput
// accumulators, and a write-amplification tracker.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Histogram records durations in logarithmically spaced buckets with linear
// sub-buckets, HDR-histogram style. It supports percentile estimation with
// bounded relative error and exact tracking of min/max/sum.
type Histogram struct {
	// counts[i][j]: major bucket i covers [2^i us, 2^(i+1) us) split into
	// subBuckets linear sub-buckets; bucket 0 covers [0, 1us). One block,
	// nil until first use: a histogram is built per device result and per
	// workload run, so it costs one allocation, not one per major bucket.
	counts *[majorBuckets][subBuckets]int64
	total  int64
	sum    time.Duration
	min    time.Duration
	max    time.Duration
}

const (
	majorBuckets = 40 // covers up to ~2^39 us, far beyond any simulated latency
	subBuckets   = 32
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.init()
	return h
}

// init lazily allocates the bucket matrix so that the zero-value
// Histogram is usable (Record and Merge call it).
func (h *Histogram) init() {
	if h.counts == nil {
		h.counts = new([majorBuckets][subBuckets]int64)
		h.min = math.MaxInt64
	}
}

func bucketOf(d time.Duration) (int, int) {
	us := d.Microseconds()
	if us < 1 {
		return 0, 0
	}
	// Major bucket m >= 1 covers [2^(m-1), 2^m) microseconds.
	major := bits.Len64(uint64(us))
	if major > majorBuckets-1 {
		major = majorBuckets - 1
	}
	lo := int64(1) << uint(major-1)
	span := lo // width of the major bucket
	sub := int((us - lo) * subBuckets / span)
	if sub >= subBuckets {
		sub = subBuckets - 1
	}
	if sub < 0 {
		sub = 0
	}
	return major, sub
}

// valueOf returns a representative duration (upper edge) for a bucket pair.
func valueOf(major, sub int) time.Duration {
	if major == 0 {
		return time.Microsecond
	}
	lo := int64(1) << uint(major-1)
	span := lo
	us := lo + span*int64(sub+1)/subBuckets
	return time.Duration(us) * time.Microsecond
}

// Record adds one observation. The zero-value Histogram is valid: storage
// is allocated on first use.
func (h *Histogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.init()
	major, sub := bucketOf(d)
	h.counts[major][sub]++
	h.total++
	h.sum += d
	if d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.total }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() time.Duration { return h.sum }

// Mean returns the average observation, or 0 if empty.
func (h *Histogram) Mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	return h.sum / time.Duration(h.total)
}

// Min returns the smallest observation, or 0 if empty.
func (h *Histogram) Min() time.Duration {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation, or 0 if empty.
func (h *Histogram) Max() time.Duration { return h.max }

// Percentile returns an upper-bound estimate of the p-th percentile
// (0 < p <= 100). Returns 0 for an empty histogram.
func (h *Histogram) Percentile(p float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if p <= 0 {
		return h.Min()
	}
	if p >= 100 {
		return h.max
	}
	rank := int64(math.Ceil(p / 100 * float64(h.total)))
	var seen int64
	for i := range h.counts {
		for j, c := range h.counts[i] {
			seen += c
			if seen >= rank {
				// Bucket edges are coarser than the exact extrema: clamp
				// into [Min, Max] so e.g. a single 1.5µs observation does
				// not report a P50 of 1µs (below its own minimum).
				v := valueOf(i, j)
				if v > h.max {
					v = h.max
				}
				if v < h.min {
					v = h.min
				}
				return v
			}
		}
	}
	return h.max
}

// Merge adds all observations of o into h. An empty or nil o is a no-op;
// an empty receiver (including the zero value) adopts o's min rather than
// keeping its uninitialised sentinel.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.total == 0 {
		return
	}
	h.init()
	for i := range o.counts {
		for j, c := range o.counts[i] {
			h.counts[i][j] += c
		}
	}
	if h.total == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.total += o.total
	h.sum += o.sum
}

// Reset clears all recorded observations.
func (h *Histogram) Reset() {
	if h.counts != nil {
		*h.counts = [majorBuckets][subBuckets]int64{}
	}
	h.total = 0
	h.sum = 0
	h.min = math.MaxInt64
	h.max = 0
}

// Summary is a fixed snapshot of the usual reporting quantiles. All
// durations marshal to JSON as integer nanoseconds under _ns keys; the
// marshalled form also carries a human-readable "pretty" rendering.
type Summary struct {
	Count int64         `json:"count"`
	Mean  time.Duration `json:"mean_ns"`
	Min   time.Duration `json:"min_ns"`
	Max   time.Duration `json:"max_ns"`
	Sum   time.Duration `json:"sum_ns"`
	P50   time.Duration `json:"p50_ns"`
	P95   time.Duration `json:"p95_ns"`
	P99   time.Duration `json:"p99_ns"`
	P999  time.Duration `json:"p999_ns"`
}

// MarshalJSON emits the tagged nanosecond fields plus a "pretty" field
// with the fio-style String rendering.
func (s Summary) MarshalJSON() ([]byte, error) {
	type alias Summary // drops the method, avoiding recursion
	return json.Marshal(struct {
		alias
		Pretty string `json:"pretty"`
	}{alias(s), s.String()})
}

// UnmarshalJSON accepts the MarshalJSON form (the extra field is ignored).
func (s *Summary) UnmarshalJSON(data []byte) error {
	type alias Summary
	var a alias
	if err := json.Unmarshal(data, &a); err != nil {
		return err
	}
	*s = Summary(a)
	return nil
}

// Summarize captures the reporting quantiles in one pass-friendly struct.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count: h.total,
		Mean:  h.Mean(),
		Min:   h.Min(),
		Max:   h.Max(),
		Sum:   h.Sum(),
		P50:   h.Percentile(50),
		P95:   h.Percentile(95),
		P99:   h.Percentile(99),
		P999:  h.Percentile(99.9),
	}
}

// String renders the summary in fio-like form.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v p99.9=%v max=%v",
		s.Count, s.Mean.Round(time.Microsecond), s.P50, s.P95, s.P99, s.P999, s.Max.Round(time.Microsecond))
}
