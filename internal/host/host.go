// Package host implements the NVMe-style asynchronous host interface of the
// emulator: paired submission/completion queues with configurable queue
// count and depth, an arbiter that dispatches queued commands into the FTL
// in virtual time, per-zone write locks, out-of-order completions, and Zone
// Append (the device assigns the in-zone offset at dispatch and returns the
// assigned LBA on completion).
//
// # Why a queueing layer
//
// internal/sim models per-chip and per-channel contention, but a strictly
// synchronous API cannot show the queue-depth effects of a real zoned
// device: throughput scales with outstanding requests until chips or
// channels saturate, while writes inside one zone serialize on its write
// lock, as under Linux's mq-deadline. Here requests queue at a virtual
// instant, and commands to distinct zones dispatched at one instant overlap
// on idle chips.
//
// # Units
//
// The Controller (host.go) keeps the per-queue counts and wires four
// unexported units: the arbiter (arbiter.go), a (ready time, tag) heap of
// pending commands with their recycled records; the zone-lock table
// (locks.go); the read pool (reads.go), which owns read data across the
// host boundary, so lending a read the backend's views instead of copying
// them is a change to it alone; and the completion queues (cq.go). Exec and
// the synchronous wrappers (exec.go) are the depth-1 case of the same path:
// a synchronous command takes a tag and its place in the arbiter like any
// other, and its completion goes to the Controller's one sync field, not to
// a completion queue.
//
// The lock-target rule, which the lock table alone applies, once at submit:
// a read locks nothing, an OpFlush of Zone -1 locks every zone (a full write
// barrier), a write locks the zone its LBA falls in, and any other command
// locks the Zone it names. A command dispatches no earlier than every zone
// it locks is free, and holds them until it completes.
//
// # Determinism
//
// Commands pending together dispatch in (ready time, tag) order: ties break
// by tag, never by goroutine schedule. Dispatch order is a pure function of
// the submitted (time, tag) pairs only for a submitter whose submission
// instants never decrease. A read submitted while nothing is pending goes
// to the device at once, and a dispatched command is never overtaken: a
// later submission with an earlier instant dispatches after it, though its
// (ready time, tag) key is the smaller one. A deterministic submitter (the
// workload runner, or any single-threaded loop) produces bit-identical
// media state, completion times and statistics on every run and under every
// GOMAXPROCS.
//
// # Ownership
//
// A Controller is used by one goroutine at a time and takes no lock of its
// own. conzone.Device serializes its callers and is the type to share:
// concurrent submitters through it are safe, but their tag assignment order
// follows the goroutine schedule, so cross-zone timing may vary run to run;
// per-zone write ordering is still enforced by the zone locks.
package host

import (
	"fmt"

	"github.com/conzone/conzone/internal/obs"
	"github.com/conzone/conzone/internal/sim"
)

// Controller is the multi-queue host interface over one backend device. It
// is used by one goroutine at a time: it holds no lock, and conzone.Device
// is the type to share. See the package comment for the determinism
// contract. It wires its units together and owns the queue bookkeeping.
type Controller struct {
	be  Backend
	cfg Config

	nextTag Tag
	arb     arbiter   // submitted, undispatched, across all queues
	locks   zoneLocks // per-zone write locks
	reads   readPool  // read data across the host boundary

	cqs   []complQueue // per-queue completion queues, min-ordered on (Done, Tag)
	out   []int        // per-queue outstanding (submitted - reaped)
	unfin int          // total submitted-but-unreaped, across all queues
	sync  Completion   // the in-flight synchronous command's completion (Exec)

	// Device geometry, cached: it is static, and validate runs per command.
	zcap   int64
	total  int64
	nzones int

	maxDone sim.Time // latest completion the controller has produced

	dispatched int64 // commands dispatched for the controller's lifetime
}

// New builds a controller over the backend. Zero Config fields take the
// package defaults.
func New(be Backend, cfg Config) (*Controller, error) {
	if cfg.Queues <= 0 {
		cfg.Queues = DefaultQueues
	}
	if cfg.Depth <= 0 {
		cfg.Depth = DefaultDepth
	}
	if cfg.Queues > 1<<16 {
		return nil, fmt.Errorf("host: %d queues (max %d)", cfg.Queues, 1<<16)
	}
	return &Controller{
		be:      be,
		cfg:     cfg,
		nextTag: 1,
		locks:   zoneLocks{free: make([]sim.Time, be.NumZones())},
		cqs:     make([]complQueue, cfg.Queues),
		out:     make([]int, cfg.Queues),
		zcap:    be.ZoneCapSectors(),
		total:   be.TotalSectors(),
		nzones:  be.NumZones(),
	}, nil
}

// Queues returns the number of I/O submission queues.
func (c *Controller) Queues() int { return c.cfg.Queues }

// Configuration returns the queue layout in effect (defaults resolved), so
// a remount can rebuild an equivalent controller.
func (c *Controller) Configuration() Config { return c.cfg }

// Depth returns the per-queue outstanding-command limit.
func (c *Controller) Depth() int { return c.cfg.Depth }

// Submit enqueues the request on submission queue q with virtual submission
// instant at, returning the command's tag. It fails fast with ErrQueueFull
// when the queue already holds Depth unreaped commands, and with a
// validation error when the request is malformed; errors the simulated
// device itself would report (write-pointer mismatch, full zone, ...)
// arrive asynchronously in the command's Completion.
func (c *Controller) Submit(at sim.Time, q int, req Request) (Tag, error) {
	if q < 0 || q >= c.cfg.Queues {
		return 0, fmt.Errorf("host: queue %d out of range [0,%d)", q, c.cfg.Queues)
	}
	if c.out[q] >= c.cfg.Depth {
		return 0, fmt.Errorf("%w: queue %d holds %d commands", ErrQueueFull, q, c.out[q])
	}
	tag, err := c.submit(at, q, &req)
	if err == nil { // only a queued command is outstanding
		c.out[q]++
		c.unfin++
	}
	return tag, err
}

// submit validates and enqueues on queue q; q == Queues() marks Exec's
// synchronous command. req is a pointer only to spare the hot path two
// struct copies; it is never retained.
func (c *Controller) submit(at sim.Time, q int, req *Request) (Tag, error) {
	if err := c.validate(req); err != nil {
		return 0, err
	}
	tag := c.nextTag
	c.nextTag++
	if req.Op == OpRead && c.arb.len() == 0 {
		// Fast path: a read with nothing pending is the arbiter's next pick
		// (it locks nothing, and later submissions carry larger tags and,
		// from a submitter whose instants never decrease, no earlier ready
		// times), so it dispatches now, without a trip through the heap.
		data, done, err := c.reads.read(c.be, at, req.LBA, req.N, req.Dst)
		c.complete(tag, q, OpRead, -1, req.LBA, req.N, data, err, at, at, done)
		return tag, nil
	}
	r := c.arb.get()
	r.tag, r.queue, r.submitted = tag, q, at
	r.req = *req // a statement of its own: in the tuple above it is copied twice, through a temporary
	r.lock = c.locks.target(req, c.zcap)
	r.key = c.locks.ready(r.lock, at)
	c.arb.push(r)
	return tag, nil
}

// advance drains the pending commands in the arbiter's (ready time, tag)
// order, dispatching each into the backend and sorting its completion into
// the owning completion queue.
func (c *Controller) advance() {
	for c.arb.len() > 0 { // checked here, so an idle poll makes no call
		r := c.arb.pop(&c.locks)
		c.dispatch(r)
		c.arb.put(r)
	}
}

// dispatch executes one command at its ready time and queues the
// completion. A write-class command holds its zone locks until it completes.
func (c *Controller) dispatch(r *request) {
	at, req := r.key, &r.req
	if req.Op == OpRead {
		data, done, err := c.reads.read(c.be, at, req.LBA, req.N, req.Dst)
		c.complete(r.tag, r.queue, OpRead, -1, req.LBA, req.N, data, err, r.submitted, at, done)
		return
	}
	lba, n := req.LBA, req.N
	var done sim.Time
	var err error
	switch req.Op {
	case OpWrite:
		n = int64(len(req.Payloads))
		done, err = c.be.Write(at, lba, req.Payloads)
	case OpAppend:
		n = int64(len(req.Payloads))
		lba, done, err = c.be.Append(at, req.Zone, req.Payloads)
	case OpFlush:
		if r.lock == lockAll {
			done, err = c.be.FlushAll(at)
		} else {
			done, err = c.be.Flush(at, req.Zone)
		}
	case OpReset:
		done, err = c.be.ResetZone(at, req.Zone)
	case OpClose:
		done, err = c.be.CloseZone(at, req.Zone)
	case OpFinish:
		done, err = c.be.FinishZone(at, req.Zone)
	}
	done = max(done, at)
	c.locks.release(r.lock, done)
	c.complete(r.tag, r.queue, req.Op, r.lock.zone(), lba, n, nil, err, r.submitted, at, done)
}

// complete is the one completion tail of dispatch and submit's read fast
// path: it counts the dispatch, records the host-queue span (no event is
// built when observation is off) and writes the completion once, into its
// slot in queue q's completion queue, or for Exec's synchronous command
// into the sync field; reaping copies it once more.
func (c *Controller) complete(tag Tag, q int, op Op, zone int, lba, n int64, data [][]byte, err error, submitted, at, done sim.Time) {
	c.dispatched++
	if done > c.maxDone {
		c.maxDone = done
	}
	if rec := c.be.Recorder(); rec != nil {
		rec.Record(obs.Event{
			Stage: obs.StageHostQueue, Cause: obs.CauseNone,
			Begin: submitted, End: at,
			Zone: int32(zone), Actor: int32(q), LBA: lba, N: n,
		})
	}
	comp := &c.sync
	if q < len(c.cqs) {
		comp = c.cqs[q].push(done, tag)
	}
	comp.Tag, comp.Queue, comp.Op, comp.Zone, comp.LBA, comp.N = tag, q, op, zone, lba, n
	comp.Data, comp.Err, comp.Status = data, err, StatusOf(err)
	comp.Submitted, comp.Dispatched, comp.Done = submitted, at, done
}

// PollInto dispatches everything pending and appends up to max completions
// from queue q's completion queue to dst, in virtual completion-time order
// (ties by tag). Reaping frees the commands' submission-queue slots. max <= 0
// reaps everything available. A reap loop that reuses its buffer (and
// Recycles read data) runs without allocating; a nil dst returns nil when
// nothing is reaped.
func (c *Controller) PollInto(q, max int, dst []Completion) []Completion {
	if q < 0 || q >= c.cfg.Queues {
		return dst
	}
	c.advance()
	cq := &c.cqs[q]
	n := cq.len()
	if max > 0 && max < n {
		n = max
	}
	for i := 0; i < n; i++ {
		s := cq.popMin()
		dst = append(dst, cq.slots[s])
		cq.release(s)
	}
	c.out[q] -= n
	c.unfin -= n
	return dst
}

// Recycle returns a read completion's Data — the container and its sector
// buffers — to the controller's pools for reuse by future reads. Only
// slices taken from a Completion may be passed in, and the caller must not
// touch them afterwards. Recycling is optional: unreturned buffers are
// simply garbage collected.
func (c *Controller) Recycle(data [][]byte) { c.reads.recycle(data) }

// Wait dispatches everything pending and reaps exactly the given command's
// completion, leaving every other completion queued for its poller. It
// reports false for a tag that was never submitted or was already reaped.
func (c *Controller) Wait(tag Tag) (Completion, bool) {
	c.advance() // every unreaped command now sits in some completion queue
	for q := range c.cqs {
		if comp, ok := c.cqs[q].takeTag(tag); ok {
			c.out[q]--
			c.unfin--
			return comp, true
		}
	}
	return Completion{}, false
}

// Kick dispatches every pending command without reaping any completion,
// returning the latest completion instant the controller has produced.
// Management paths use it as a barrier before touching device state
// directly.
func (c *Controller) Kick() sim.Time {
	c.advance()
	return c.maxDone
}

// Idle reports whether no command is pending or awaiting reap anywhere.
func (c *Controller) Idle() bool { return c.arb.len() == 0 && c.unfin == 0 }

// Dispatched returns how many commands the arbiter has dispatched over the
// controller's lifetime.
func (c *Controller) Dispatched() int64 { return c.dispatched }
