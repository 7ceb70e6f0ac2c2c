package host

import "github.com/conzone/conzone/internal/sim"

// request is a submitted, not-yet-dispatched command.
type request struct {
	tag       Tag
	queue     int
	submitted sim.Time
	req       Request
	lock      lockTarget // what its zone write lock covers, decided at submit

	// key is the ready time computed when the request was last sifted: a
	// lower bound on the true one, which pop refreshes lazily.
	key sim.Time
}

// arbiter holds the pending commands of every queue in a binary min-heap
// on (key, tag) — earliest stored ready time first, and among equal times
// the lower tag, i.e. the earlier submission, so ties break the same way on
// every run — and recycles their records.
type arbiter struct {
	heap []*request
	free []*request // spent records, reused by get
}

func (a *arbiter) len() int { return len(a.heap) }

// get returns a request record, reusing a spent one when available.
func (a *arbiter) get() *request {
	if n := len(a.free); n > 0 {
		r := a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		return r
	}
	return new(request)
}

// put returns a dispatched request's record for reuse.
func (a *arbiter) put(r *request) {
	r.req = Request{} // drop the payload container reference
	a.free = append(a.free, r)
}

// push queues r under its key.
func (a *arbiter) push(r *request) {
	a.heap = append(a.heap, r)
	a.up(len(a.heap) - 1)
}

// pop removes and returns the pending command with the smallest (ready
// time, tag), or nil when none is pending. Keys go stale only low (a
// dispatch can only push a lock horizon later), so pop refreshes the root's
// key and sifts it down until the root's key is fresh: it is then no later
// than every other command's lower bound, hence the exact minimum.
func (a *arbiter) pop(locks *zoneLocks) *request {
	for len(a.heap) > 0 {
		r := a.heap[0]
		if ready := locks.ready(r.lock, r.submitted); ready != r.key {
			r.key = ready
			a.down(0)
			continue
		}
		n := len(a.heap) - 1
		a.heap[0] = a.heap[n]
		a.heap[n] = nil
		a.heap = a.heap[:n]
		a.down(0)
		return r
	}
	return nil
}

func (a *arbiter) less(i, j int) bool {
	if a.heap[i].key != a.heap[j].key {
		return a.heap[i].key < a.heap[j].key
	}
	return a.heap[i].tag < a.heap[j].tag
}

// up and down are container/heap's sifts, so the heap's layout, and with it
// DebugSnapshot's pending order, is the one container/heap builds.
func (a *arbiter) up(j int) {
	for i := (j - 1) / 2; j > 0 && a.less(j, i); j, i = i, (i-1)/2 {
		a.heap[i], a.heap[j] = a.heap[j], a.heap[i]
	}
}

func (a *arbiter) down(i int) {
	for n := len(a.heap); 2*i+1 < n; {
		j := 2*i + 1 // the lesser child
		if j+1 < n && a.less(j+1, j) {
			j++
		}
		if !a.less(j, i) {
			return
		}
		a.heap[i], a.heap[j] = a.heap[j], a.heap[i]
		i = j
	}
}
