package telemetry

import (
	"fmt"

	"github.com/conzone/conzone/internal/sim"
)

// Sample is one point of the virtual-time series: the cumulative unified
// snapshot at instant At plus the delta against the previous sample. The
// delta carries the derived interval gauges (interval WAF, GC migrated
// sectors, interval miss ratio); the cumulative snapshot carries the
// running totals and the current occupancy gauges.
type Sample struct {
	Seq uint64   `json:"seq"`
	At  sim.Time `json:"at_ns"`

	// Discontinuity marks a sample taken immediately after a crash
	// recovery (Remount). Its Delta is zeroed — the pre-crash counters
	// died with the old FTL, so subtracting across the cut would produce
	// meaningless negatives — and its Stats are the recovered device's
	// fresh totals. Plotting code must break the line here.
	Discontinuity bool `json:"discontinuity,omitempty"`

	Stats Stats `json:"stats"`
	Delta Stats `json:"delta"`
}

// DefaultSeriesSize is the sample ring capacity used when a caller asks
// for a non-positive size.
const DefaultSeriesSize = 4096

// Sampler turns unified snapshots into a ring-buffered virtual-time
// series. It is passive: it owns no clock and spawns nothing. The device
// calls Due on every virtual-clock advance (two comparisons) and feeds a
// fresh snapshot through Record when a sample interval boundary has been
// crossed. Samples land in a preallocated ring, so steady-state recording
// performs zero heap allocations (pinned by TestSamplerZeroAlloc), exactly
// like the internal/obs flight recorder.
//
// A Sampler is synchronized by its owner like the FTL it observes: one
// caller at a time. Nil-safety mirrors obs.Recorder: every method on a nil
// *Sampler no-ops, so the disabled state costs one pointer test.
type Sampler struct {
	interval sim.Duration
	next     sim.Time
	ring     []Sample
	seq      uint64 // samples ever recorded
	prev     Stats
	havePrev bool
}

// NewSampler returns a sampler that wants one sample every interval of
// virtual time, retaining the most recent ringSize samples
// (DefaultSeriesSize when ringSize <= 0).
func NewSampler(interval sim.Duration, ringSize int) (*Sampler, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("telemetry: sample interval must be positive, got %v", interval)
	}
	if ringSize <= 0 {
		ringSize = DefaultSeriesSize
	}
	return &Sampler{
		interval: interval,
		next:     sim.Time(interval),
		ring:     make([]Sample, ringSize),
	}, nil
}

// Prime anchors the sampler at arming time: the first boundary lands one
// interval after now, and cum becomes the delta baseline, so the first
// sample's delta covers exactly the activity since arming (and on a fresh
// device the deltas tile the cumulative counters with no gap). A device
// enabled mid-experiment therefore neither emits a sample for the
// already-elapsed past nor folds that past into its first interval... the
// cumulative Stats still carry the full history.
func (s *Sampler) Prime(now sim.Time, cum Stats) {
	if s == nil {
		return
	}
	s.next = now + sim.Time(s.interval)
	s.prev = cum
	s.havePrev = true
}

// Interval returns the configured virtual sample interval.
func (s *Sampler) Interval() sim.Duration {
	if s == nil {
		return 0
	}
	return s.interval
}

// Due reports whether the virtual clock has crossed the next sample
// boundary. Nil-safe and branch-cheap: this is the test on the I/O hot
// path.
func (s *Sampler) Due(now sim.Time) bool {
	return s != nil && now >= s.next
}

// Record stores one sample at virtual instant now from the cumulative
// snapshot cum, computing the interval delta against the previous sample.
// The next boundary advances by whole intervals; when the clock jumped
// several intervals at once (one long media op can), the missed boundaries
// are skipped rather than back-filled — the device's state at those
// instants is unknowable after the fact.
func (s *Sampler) Record(now sim.Time, cum Stats) {
	if s == nil {
		return
	}
	smp := s.push(now, cum, false)
	if s.havePrev {
		smp.Delta = cum
		fold(&smp.Delta, &s.prev, true)
	}
	s.prev = cum
	s.havePrev = true
	s.next += sim.Time(s.interval)
	if s.next <= now {
		s.next = now + sim.Time(s.interval)
	}
}

// Discontinuity records an explicit series break at a crash-recovery
// boundary: a marker sample whose Stats are the recovered device's totals
// and whose Delta is zero. The delta baseline resets to the recovered
// snapshot, so the next regular sample subtracts against post-recovery
// counters — never across the cut — and the occupancy gauges restart from
// the recovered (empty-buffer) state.
func (s *Sampler) Discontinuity(now sim.Time, cum Stats) {
	if s == nil {
		return
	}
	s.push(now, cum, true)
	s.prev = cum
	s.havePrev = true
	if next := now + sim.Time(s.interval); next > s.next {
		s.next = next
	}
}

// push writes one sample into its ring slot — the cumulative snapshot, and
// a delta of zero counters carrying the current occupancy — advances the
// sequence and returns the slot, so Record can fold the interval in place.
func (s *Sampler) push(now sim.Time, cum Stats, discontinuity bool) *Sample {
	smp := &s.ring[s.seq%uint64(len(s.ring))]
	*smp = Sample{Seq: s.seq, At: now, Discontinuity: discontinuity, Stats: cum}
	smp.Delta.Occupancy = cum.Occupancy
	s.seq++
	return smp
}

// Recorded returns how many samples have ever been recorded.
func (s *Sampler) Recorded() int64 {
	if s == nil {
		return 0
	}
	return int64(s.seq)
}

// Dropped returns how many samples the ring has overwritten.
func (s *Sampler) Dropped() int64 {
	if s == nil || s.seq <= uint64(len(s.ring)) {
		return 0
	}
	return int64(s.seq - uint64(len(s.ring)))
}

// Samples returns the retained samples, oldest first. The slice is a copy.
func (s *Sampler) Samples() []Sample {
	if s == nil || s.seq == 0 {
		return nil
	}
	size := uint64(len(s.ring))
	have := s.seq
	if have > size {
		have = size
	}
	out := make([]Sample, 0, have)
	for i := s.seq - have; i < s.seq; i++ {
		out = append(out, s.ring[i%size])
	}
	return out
}
