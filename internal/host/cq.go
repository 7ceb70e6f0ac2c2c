package host

import "github.com/conzone/conzone/internal/sim"

// cqKey orders one queued completion inside its queue. The queue shuffles
// these 24-byte keys; the Completion values sit still in its slot arena
// until reaped, so only one copy of each crosses into the reaper's buffer.
type cqKey struct {
	done sim.Time
	tag  Tag
	slot int32
}

func (k cqKey) less(o cqKey) bool {
	return k.done < o.done || (k.done == o.done && k.tag < o.tag)
}

// complQueue is one completion queue: keys sorted ascending on (Done, Tag)
// over a slot arena of Completion values. Popping the minimum is a head
// bump; pushing is usually an append, as most completions finish after
// everything queued, and otherwise a binary search that memmoves only the
// keys above it, typically the last few.
type complQueue struct {
	order []cqKey      // ascending on (done, tag) from head; dead prefix before
	head  int          // index of the live minimum within order
	slots []Completion // value arena indexed by cqKey.slot
	free  []int32      // recycled arena slots
}

// cqCompactAt bounds the dead prefix popMin leaves behind: once head passes
// it, the live keys are copied down so the slice stops growing. At most
// liveLen keys move per cqCompactAt pops — amortized O(1).
const cqCompactAt = 64

func (q *complQueue) len() int { return len(q.order) - q.head }

// push allocates a slot, links it into the order under (done, tag), and
// returns the slot's Completion for the caller to fill in place.
func (q *complQueue) push(done sim.Time, tag Tag) *Completion {
	var s int32
	if n := len(q.free); n > 0 {
		s = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		q.slots = append(q.slots, Completion{})
		s = int32(len(q.slots) - 1)
	}
	q.pushKey(cqKey{done: done, tag: tag, slot: s})
	return &q.slots[s]
}

// pushKey links an already-allocated arena slot's key into the ascending
// order. Fast path: the key belongs at the tail. Otherwise binary search
// the live region and shift the larger keys up one position.
func (q *complQueue) pushKey(k cqKey) {
	if n := len(q.order); n == q.head || !k.less(q.order[n-1]) {
		q.order = append(q.order, k)
		return
	}
	lo, hi := q.head, len(q.order)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if k.less(q.order[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	q.order = append(q.order, cqKey{})
	copy(q.order[lo+1:], q.order[lo:])
	q.order[lo] = k
}

// popMin unlinks the earliest (done, tag) completion and returns its slot.
// The caller copies the value out and then calls release.
func (q *complQueue) popMin() int32 {
	s := q.order[q.head].slot
	q.head++
	if q.head == len(q.order) {
		q.order = q.order[:0] // drained: reclaim the dead prefix
		q.head = 0
	} else if q.head >= cqCompactAt {
		m := copy(q.order, q.order[q.head:])
		q.order = q.order[:m]
		q.head = 0
	}
	return s
}

// release recycles a popped slot, dropping its reference fields so reaped
// Data is not retained by the arena.
func (q *complQueue) release(s int32) {
	q.slots[s].Data = nil
	q.slots[s].Err = nil
	q.free = append(q.free, s)
}

// takeTag removes and returns the completion with the given tag, wherever
// it sits in the queue, preserving the order of the rest.
func (q *complQueue) takeTag(tag Tag) (Completion, bool) {
	for i := q.head; i < len(q.order); i++ {
		if q.order[i].tag == tag {
			s := q.order[i].slot
			comp := q.slots[s]
			q.order = append(q.order[:i], q.order[i+1:]...)
			if q.head == len(q.order) {
				q.order, q.head = q.order[:0], 0
			}
			q.release(s)
			return comp, true
		}
	}
	return Completion{}, false
}

// snapshot returns the queued completions in reap order — (Done, Tag)
// ascending, which is exactly the live key order. Debug/audit use only.
func (q *complQueue) snapshot() []Completion {
	live := q.order[q.head:]
	if len(live) == 0 {
		return nil
	}
	out := make([]Completion, len(live))
	for i, k := range live {
		out[i] = q.slots[k.slot]
	}
	return out
}
