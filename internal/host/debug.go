package host

import "github.com/conzone/conzone/internal/sim"

// A read-only snapshot of the controller's queueing state for the invariant
// auditor (internal/check), which checks the value: its corruption tests
// corrupt a copy, so the live controller needs no mutators.

// PendingInfo describes one submitted, not-yet-dispatched command.
type PendingInfo struct {
	Tag       Tag
	Queue     int
	Op        Op
	Zone      int // write-lock target (-1 for reads and flush-alls)
	Submitted sim.Time
}

// DebugState is a consistent snapshot of the controller's queueing state.
type DebugState struct {
	NextTag     Tag
	Outstanding []int          // per queue: submitted and not yet reaped
	Pending     []PendingInfo  // undispatched commands, submission order
	Completions [][]Completion // per-queue completion queues, reap order
	ZoneFree    []sim.Time     // per-zone write-lock horizon
	MaxDone     sim.Time
}

// DebugSnapshot copies the controller's queueing state for auditing.
func (c *Controller) DebugSnapshot() DebugState {
	st := DebugState{
		NextTag:     c.nextTag,
		Outstanding: append([]int(nil), c.out...),
		ZoneFree:    append([]sim.Time(nil), c.locks.free...),
		MaxDone:     c.maxDone,
	}
	for _, r := range c.arb.heap {
		st.Pending = append(st.Pending, PendingInfo{
			Tag: r.tag, Queue: r.queue, Op: r.req.Op,
			Zone: r.lock.zone(), Submitted: r.submitted,
		})
	}
	st.Completions = make([][]Completion, len(c.cqs))
	for q := range c.cqs {
		st.Completions[q] = c.cqs[q].snapshot()
	}
	return st
}
