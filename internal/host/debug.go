package host

import "github.com/conzone/conzone/internal/sim"

// This file exposes read-only snapshots of the controller's queueing state
// for the cross-subsystem invariant auditor (internal/check), plus Debug*
// mutators that deliberately desynchronize that state so the auditor's
// corruption-injection tests can prove each invariant actually fires.
// Nothing here is part of the host API proper.

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

// DebugSetCompletionLBA rewrites the queued completion's assigned LBA,
// simulating a controller that reported a bogus Zone Append result.
// Test-only corruption hook; reports whether the tag was found queued.
func (c *Controller) DebugSetCompletionLBA(tag Tag, lba int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for q := range c.cqs {
		cq := &c.cqs[q]
		for i := cq.head; i < len(cq.order); i++ {
			if cq.order[i].tag == tag {
				cq.slots[cq.order[i].slot].LBA = lba
				return true
			}
		}
	}
	return false
}

// DebugSetCompletionTimes rewrites the queued completion's dispatch and
// completion instants, simulating broken zone write-lock accounting.
// Test-only corruption hook; reports whether the tag was found queued.
func (c *Controller) DebugSetCompletionTimes(tag Tag, dispatched, done sim.Time) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for q := range c.cqs {
		cq := &c.cqs[q]
		for i := cq.head; i < len(cq.order); i++ {
			if cq.order[i].tag == tag {
				s := cq.order[i].slot
				cq.slots[s].Dispatched = dispatched
				cq.slots[s].Done = done
				// Done is part of the ordering key: relink the slot under it.
				cq.removeAt(i)
				cq.pushKey(cqKey{done: done, tag: tag, slot: s})
				return true
			}
		}
	}
	return false
}

// DebugAddOutstanding skews queue q's outstanding counter by delta,
// desynchronizing it from the pending set and completion queue contents.
// Test-only corruption hook.
func (c *Controller) DebugAddOutstanding(q, delta int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if q >= 0 && q < len(c.out) {
		c.out[q] += delta
	}
}

// DebugDuplicateCompletion clones the queued completion under the same tag,
// simulating a double-completion bug. Test-only corruption hook; reports
// whether the tag was found queued.
func (c *Controller) DebugDuplicateCompletion(tag Tag) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for q := range c.cqs {
		cq := &c.cqs[q]
		for i := cq.head; i < len(cq.order); i++ {
			if cq.order[i].tag == tag {
				comp := cq.slots[cq.order[i].slot]
				*cq.push(comp.Done, comp.Tag) = comp
				c.out[q]++
				return true
			}
		}
	}
	return false
}

// DebugLoseSyncCompletions arms the dispatcher to swallow the next n
// completions bound for the internal sync queue, reproducing the
// bookkeeping corruption execSync's lost-completion recovery guards
// against. Test-only corruption hook.
func (c *Controller) DebugLoseSyncCompletions(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.debugLoseSync = n
}

// DebugSetZoneFree rewrites one zone's write-lock horizon. Test-only
// corruption hook.
func (c *Controller) DebugSetZoneFree(zone int, t sim.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if zone >= 0 && zone < len(c.zoneFree) {
		c.zoneFree[zone] = t
	}
}
