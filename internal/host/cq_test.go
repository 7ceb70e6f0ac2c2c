package host

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/conzone/conzone/internal/sim"
)

// TestComplQueueOrder drives one completion queue with random pushes, head
// pops and tagged takes, and checks every pop and the queue's snapshot
// against a reference kept sorted on (Done, Tag).
func TestComplQueueOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q complQueue
	var ref []cqKey // ascending on (done, tag); slot unused
	tag := Tag(1)
	for step := 0; step < 20000; step++ {
		switch k := rng.Intn(10); {
		case k < 5 || len(ref) == 0:
			done := sim.Time(rng.Intn(500))
			comp := q.push(done, tag)
			comp.Tag, comp.Done = tag, done
			key := cqKey{done: done, tag: tag}
			i := sort.Search(len(ref), func(i int) bool { return key.less(ref[i]) })
			ref = append(ref, cqKey{})
			copy(ref[i+1:], ref[i:])
			ref[i] = key
			tag++
		case k < 9:
			s := q.popMin()
			got := q.slots[s]
			q.release(s)
			if got.Tag != ref[0].tag || got.Done != ref[0].done {
				t.Fatalf("step %d: popped (%d, %d), want (%d, %d)", step, got.Done, got.Tag, ref[0].done, ref[0].tag)
			}
			ref = ref[1:]
		default:
			i := rng.Intn(len(ref))
			got, ok := q.takeTag(ref[i].tag)
			if !ok || got.Tag != ref[i].tag {
				t.Fatalf("step %d: takeTag(%d) = %d, %v", step, ref[i].tag, got.Tag, ok)
			}
			ref = append(ref[:i], ref[i+1:]...)
		}
		if q.len() != len(ref) {
			t.Fatalf("step %d: len %d, want %d", step, q.len(), len(ref))
		}
	}
	snap := q.snapshot()
	if len(snap) != len(ref) {
		t.Fatalf("snapshot holds %d completions, want %d", len(snap), len(ref))
	}
	for i, c := range snap {
		if c.Tag != ref[i].tag {
			t.Fatalf("snapshot[%d] tag %d, want %d", i, c.Tag, ref[i].tag)
		}
	}
}

// BenchmarkComplQueue measures one completion queue in randread's steady
// state: 64 completions outstanding with seeded random Done times, and each
// operation pops the earliest and pushes a fresh one that finishes a random
// 0-2047 ns later than it, so most pushes land among the queued keys
// rather than at the tail.
func BenchmarkComplQueue(b *testing.B) {
	const window = 64
	x := uint64(0x5EED)
	next := func() sim.Time {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return sim.Time(x % 2048)
	}
	var q complQueue
	tag := Tag(1)
	for ; tag <= window; tag++ {
		done := next()
		comp := q.push(done, tag)
		comp.Tag, comp.Done = tag, done
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := q.popMin()
		done := q.slots[s].Done + next()
		q.release(s)
		comp := q.push(done, tag)
		comp.Tag, comp.Done = tag, done
		tag++
	}
}
