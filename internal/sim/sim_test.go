package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestTimeArithmetic(t *testing.T) {
	var t0 Time
	t1 := t0.Add(5 * time.Microsecond)
	if t1.Sub(t0) != 5*time.Microsecond {
		t.Errorf("Sub = %v", t1.Sub(t0))
	}
	if Max(t0, t1) != t1 || Max(t1, t0) != t1 {
		t.Error("Max broken")
	}
}

func TestResourceIdleStart(t *testing.T) {
	r := NewResource("chip0")
	start, end := r.Reserve(100, 50)
	if start != 100 || end != 150 {
		t.Errorf("Reserve on idle: start=%v end=%v", start, end)
	}
}

func TestResourceQueueing(t *testing.T) {
	r := NewResource("chip0")
	r.Reserve(0, 100)
	// Second op arrives at t=10 but the resource is busy until 100.
	start, end := r.Reserve(10, 30)
	if start != 100 || end != 130 {
		t.Errorf("queued op: start=%v end=%v, want 100/130", start, end)
	}
	if r.BusyUntil() != 130 {
		t.Errorf("BusyUntil = %v", r.BusyUntil())
	}
	if r.Ops() != 2 {
		t.Errorf("Ops = %d", r.Ops())
	}
	if r.BusyTime() != 130 {
		t.Errorf("BusyTime = %v", r.BusyTime())
	}
}

func TestResourceLateArrival(t *testing.T) {
	r := NewResource("chan0")
	r.Reserve(0, 10)
	start, _ := r.Reserve(1000, 10)
	if start != 1000 {
		t.Errorf("late arrival should start immediately, start=%v", start)
	}
}

func TestResourceNegativeDurationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewResource("x").Reserve(0, -1)
}

func TestResourceUtilization(t *testing.T) {
	r := NewResource("x")
	r.Reserve(0, 50)
	if u := r.Utilization(100); u != 0.5 {
		t.Errorf("Utilization = %v", u)
	}
	if u := r.Utilization(0); u != 0 {
		t.Error("empty window should be 0")
	}
}

func TestResourceReset(t *testing.T) {
	r := NewResource("x")
	r.Reserve(0, 50)
	r.Reset()
	if r.BusyUntil() != 0 || r.BusyTime() != 0 || r.Ops() != 0 {
		t.Error("Reset did not clear state")
	}
	if r.Name() != "x" {
		t.Error("Reset must keep name")
	}
}

// Property: completion is monotone in submission order and completion >=
// arrival + duration always holds.
func TestResourceMonotoneProperty(t *testing.T) {
	f := func(arrivals []uint16, durs []uint8) bool {
		r := NewResource("p")
		var at Time
		var lastEnd Time
		n := len(arrivals)
		if len(durs) < n {
			n = len(durs)
		}
		for i := 0; i < n; i++ {
			at += Time(arrivals[i]) // non-decreasing arrival times
			d := Duration(durs[i])
			start, end := r.Reserve(at, d)
			if start < at || end != start.Add(d) || end < lastEnd {
				return false
			}
			lastEnd = end
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEngineObserve(t *testing.T) {
	e := NewEngine()
	e.Observe(100)
	e.Observe(50) // must not regress
	if e.Now() != 100 {
		t.Errorf("Now = %v", e.Now())
	}
}

func TestEngineResourcesAndReset(t *testing.T) {
	e := NewEngine()
	a := e.NewResource("a")
	b := e.NewResource("b")
	a.Reserve(0, 10)
	b.Reserve(0, 20)
	e.Observe(20)
	if len(e.Resources()) != 2 {
		t.Fatalf("Resources = %d", len(e.Resources()))
	}
	e.Reset()
	if e.Now() != 0 || a.BusyUntil() != 0 || b.BusyUntil() != 0 {
		t.Error("Reset incomplete")
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same sequence")
		}
	}
	c := NewRand(43)
	same := true
	a = NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds should diverge")
	}
}

func TestRandZeroSeed(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed must not be a fixed point")
	}
}

func TestRandInt63nRange(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 1000; i++ {
		v := r.Int63n(37)
		if v < 0 || v >= 37 {
			t.Fatalf("Int63n out of range: %d", v)
		}
	}
}

func TestRandInt63nPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewRand(1).Int63n(0)
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 1000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRandDurationRange(t *testing.T) {
	r := NewRand(11)
	lo, hi := 10*time.Microsecond, 30*time.Microsecond
	for i := 0; i < 1000; i++ {
		d := r.Duration(lo, hi)
		if d < lo || d > hi {
			t.Fatalf("Duration out of range: %v", d)
		}
	}
	if r.Duration(hi, lo) != hi {
		t.Error("inverted range should return lo")
	}
}

// Rough uniformity check: mean of Int63n(1000) over many draws should be
// near 500.
func TestRandUniformityCoarse(t *testing.T) {
	r := NewRand(123)
	var sum int64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += r.Int63n(1000)
	}
	mean := float64(sum) / n
	if mean < 450 || mean > 550 {
		t.Errorf("mean = %v, want ~500", mean)
	}
}

// BenchmarkReserve measures one booking on the busiest call of the read
// path: an operation lands on one of 32 chip-like resources, chosen by a
// seeded xorshift, and takes a fixed 4 KiB-read-like duration.
func BenchmarkReserve(b *testing.B) {
	var rs [32]Resource
	x := uint64(0x5EED)
	var at Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		_, end := rs[x%uint64(len(rs))].Reserve(at, 40*time.Microsecond)
		at += Time(time.Microsecond)
		reserveSink += end
	}
}

// reserveSink keeps the benchmarked reservations' results live.
var reserveSink Time
