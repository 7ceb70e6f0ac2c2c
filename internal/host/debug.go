package host

import "github.com/conzone/conzone/internal/sim"

// This file exposes a read-only snapshot of the controller's queueing state
// for the cross-subsystem invariant auditor (internal/check). The auditor
// checks the snapshot value, so its corruption-injection tests corrupt a copy
// and the live controller needs no mutators. Nothing here is part of the host
// API proper.

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
	Outstanding []int          // per queue, index Queues() = internal sync queue
	Pending     []PendingInfo  // undispatched commands, submission order
	Completions [][]Completion // per-queue completion queues, reap order
	ZoneFree    []sim.Time     // per-zone write-lock horizon
	MaxDone     sim.Time
	// LostCompletions counts dispatched commands whose completions the
	// controller lost track of — always zero unless an invariant broke.
	LostCompletions int64
}

// DebugSnapshot copies the controller's queueing state for auditing.
func (c *Controller) DebugSnapshot() DebugState {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := DebugState{
		NextTag:         c.nextTag,
		Outstanding:     append([]int(nil), c.out...),
		ZoneFree:        append([]sim.Time(nil), c.zoneFree...),
		MaxDone:         c.maxDone,
		LostCompletions: c.lostCompletions,
	}
	zoneCap := c.be.ZoneCapSectors()
	for _, r := range c.pending {
		st.Pending = append(st.Pending, PendingInfo{
			Tag: r.tag, Queue: r.queue, Op: r.req.Op,
			Zone: r.zone(zoneCap), Submitted: r.submitted,
		})
	}
	st.Completions = make([][]Completion, len(c.cqs))
	for q := range c.cqs {
		st.Completions[q] = c.cqs[q].snapshot()
	}
	return st
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
