// Package sim implements the discrete-event timing substrate of the
// emulator. It follows the delay-emulation model popularised by FEMU and
// SSDSim: every hardware resource (a flash chip, a flash channel) carries a
// busy-until timestamp in virtual time; an operation submitted at time T on
// a resource starts at max(T, busyUntil), runs for its latency, and pushes
// busyUntil forward. Completion times therefore reflect both media latency
// and queueing caused by contention, without any real-time sleeping.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, measured in nanoseconds from the start of
// the simulation. Virtual time is unrelated to the wall clock.
type Time int64

// Duration re-exports time.Duration for latency arithmetic; virtual
// durations and wall durations share a representation but never mix.
type Duration = time.Duration

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Max returns the later of the two instants.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// String renders the instant as a duration from simulation start.
func (t Time) String() string { return Duration(t).String() }

// Resource models a unit of hardware that can execute one operation at a
// time: a flash chip (sensing/programming) or a channel (data transfer).
// The zero value is an idle resource at time zero.
type Resource struct {
	name      string
	busyUntil Time
	busyTime  Duration // accumulated occupied virtual time
	ops       int64
}

// NewResource returns an idle resource with a diagnostic name.
func NewResource(name string) *Resource {
	return &Resource{name: name}
}

// Name returns the diagnostic name given at construction.
func (r *Resource) Name() string { return r.name }

// Reserve books the resource for an operation arriving at 'at' that takes
// 'dur'. It returns the operation's start and end instants and advances the
// resource's busy horizon to the end instant.
func (r *Resource) Reserve(at Time, dur Duration) (start, end Time) {
	if dur < 0 {
		panic(fmt.Sprintf("sim: negative duration %v on %s", dur, r.name))
	}
	start = Max(at, r.busyUntil)
	end = start.Add(dur)
	r.busyUntil = end
	r.busyTime += dur
	r.ops++
	return start, end
}

// BusyTime returns the total virtual time this resource has been occupied.
func (r *Resource) BusyTime() Duration { return r.busyTime }

// Ops returns how many operations have been reserved on this resource.
func (r *Resource) Ops() int64 { return r.ops }

// Utilization returns busyTime / horizon, where horizon is the given end of
// the measurement window. Returns 0 for an empty window.
func (r *Resource) Utilization(horizon Time) float64 {
	if horizon <= 0 {
		return 0
	}
	return float64(r.busyTime) / float64(horizon)
}

// Engine aggregates the virtual-time bookkeeping shared by a device: a
// monotone "now" watermark (the latest completion observed) and the set of
// resources it has created. Devices are free to keep their own resource
// references; the engine's registry exists for reporting and reset.
type Engine struct {
	now       Time
	resources []*Resource
}

// NewEngine returns an engine at virtual time zero.
func NewEngine() *Engine { return &Engine{} }

// NewResource creates and registers a named resource.
func (e *Engine) NewResource(name string) *Resource {
	r := NewResource(name)
	e.resources = append(e.resources, r)
	return r
}

// Observe advances the engine's completion watermark. Callers report every
// operation completion so that Now() reflects simulation progress.
func (e *Engine) Observe(t Time) {
	if t > e.now {
		e.now = t
	}
}

// Now returns the latest completion instant observed so far.
func (e *Engine) Now() Time { return e.now }

// Resources returns the registered resources in creation order.
func (e *Engine) Resources() []*Resource { return e.resources }

// ResourceUsage is a reporting snapshot of one resource's accumulated
// occupancy, exported by telemetry snapshots.
type ResourceUsage struct {
	Name        string   `json:"name"`
	BusyTime    Duration `json:"busy_ns"`
	Ops         int64    `json:"ops"`
	Utilization float64  `json:"utilization"` // busy fraction of the observed horizon
}

// Usage snapshots every registered resource against the engine's current
// completion watermark as the utilization horizon.
func (e *Engine) Usage() []ResourceUsage {
	out := make([]ResourceUsage, 0, len(e.resources))
	for _, r := range e.resources {
		out = append(out, ResourceUsage{
			Name:        r.Name(),
			BusyTime:    r.BusyTime(),
			Ops:         r.Ops(),
			Utilization: r.Utilization(e.now),
		})
	}
	return out
}

// Rand is a small deterministic pseudo-random source (xorshift64*) used for
// reproducible workload generation and jitter without pulling in math/rand
// state that tests cannot control. The zero value is invalid; use NewRand.
type Rand struct {
	state uint64
}

// NewRand seeds a generator. A zero seed is replaced with a fixed constant
// because xorshift has an all-zero fixed point.
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Rand{state: seed}
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Int63n returns a uniform value in [0, n). n must be positive.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive bound")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Duration returns a uniform duration in [lo, hi].
func (r *Rand) Duration(lo, hi Duration) Duration {
	if hi <= lo {
		return lo
	}
	return lo + Duration(r.Int63n(int64(hi-lo)+1))
}
