package host

import (
	"math/rand"
	"testing"

	"github.com/conzone/conzone/internal/sim"
)

// TestArbiterPopsReadyOrder drives the arbiter with random pushes and pops
// while the lock horizons move under it, and checks every pop against a
// linear scan for the (ready time, tag) minimum over the same lock table.
func TestArbiterPopsReadyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	locks := zoneLocks{free: make([]sim.Time, 4)}
	var a arbiter
	var ref []*request
	tag := Tag(1)
	for step := 0; step < 20000; step++ {
		if rng.Intn(2) == 0 || len(ref) == 0 {
			r := a.get()
			if r.req.Payloads != nil {
				t.Fatalf("step %d: a recycled record still holds its payloads", step)
			}
			r.tag, r.submitted = tag, sim.Time(step+rng.Intn(200))
			switch k := rng.Intn(8); {
			case k < 3:
				r.lock = lockNone
			case k < 7:
				r.lock = lockTarget(rng.Intn(len(locks.free)))
			default:
				r.lock = lockAll
			}
			r.key = locks.ready(r.lock, r.submitted)
			a.push(r)
			ref = append(ref, r)
			tag++
			continue
		}
		best, bestReady := -1, sim.Time(0)
		for i, r := range ref {
			ready := locks.ready(r.lock, r.submitted)
			if best < 0 || ready < bestReady || (ready == bestReady && r.tag < ref[best].tag) {
				best, bestReady = i, ready
			}
		}
		got := a.pop(&locks)
		if got != ref[best] || got.key != bestReady {
			t.Fatalf("step %d: popped tag %d at %d, want tag %d at %d", step, got.tag, got.key, ref[best].tag, bestReady)
		}
		ref = append(ref[:best], ref[best+1:]...)
		locks.release(got.lock, got.key+sim.Time(rng.Intn(300)))
		got.req.Payloads = make([][]byte, 1)
		a.put(got)
		if a.len() != len(ref) {
			t.Fatalf("step %d: %d pending, want %d", step, a.len(), len(ref))
		}
	}
	for range ref {
		if a.pop(&locks) == nil {
			t.Fatal("pop returned nil with commands pending")
		}
	}
	if r := a.pop(&locks); r != nil {
		t.Fatalf("pop of an empty arbiter returned tag %d", r.tag)
	}
}

// BenchmarkArbiter measures one pending command's trip through the arbiter
// with 64 pending: pop the (ready time, tag) minimum, release its zone lock
// at a completion 0-1023 ns after dispatch, and push a fresh command in a
// recycled record. Half the commands are reads and half writes spread over
// 64 zones, so a stale key is refreshed now and then.
func BenchmarkArbiter(b *testing.B) {
	const window = 64
	x := uint64(0x5EED)
	next := func() sim.Time {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return sim.Time(x % 1024)
	}
	locks := zoneLocks{free: make([]sim.Time, 64)}
	var a arbiter
	tag := Tag(1)
	var now sim.Time
	push := func() {
		r := a.get()
		r.tag, r.submitted, r.lock = tag, now, lockNone
		if tag%2 == 1 {
			r.lock = lockTarget(tag * 7 % 64)
		}
		r.key = locks.ready(r.lock, now)
		a.push(r)
		tag++
	}
	for i := 0; i < window; i++ {
		push()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := a.pop(&locks)
		now = r.key
		locks.release(r.lock, now+next())
		a.put(r)
		push()
	}
}
