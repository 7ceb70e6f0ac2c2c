// Package host implements the NVMe-style asynchronous host interface of the
// emulator: paired submission/completion queues with configurable queue
// count and depth, an arbiter that dispatches queued commands into the FTL
// in virtual time, per-zone write-lock serialization for sequential-write
// correctness, out-of-order completions, and Zone Append semantics (the
// device assigns the in-zone offset at dispatch and returns the assigned
// LBA on completion).
//
// # Why a queueing layer
//
// The delay-emulation substrate underneath (internal/sim) already models
// per-chip and per-channel contention, but a strictly synchronous device
// API can never exhibit the queue-depth effects that dominate real zoned
// devices: throughput scales with the number of outstanding requests until
// chips or channels saturate, while writes inside one zone are serialized
// by the zone write lock (as the mq-deadline scheduler does for ZNS on
// Linux). The Controller supplies exactly that: requests queue with a
// virtual submission instant; the arbiter dispatches them in deterministic
// (ready time, tag) order; reads and writes to distinct zones overlap on
// idle chips because they are dispatched at the same virtual instant, and
// writes to one zone wait for the zone's lock.
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
	"container/heap"
	"errors"
	"fmt"

	"github.com/conzone/conzone/internal/obs"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
)

// Op identifies a queued host command.
type Op uint8

// Host commands. All but OpRead are "write-class": they mutate zone state
// and take the target zone's write lock at dispatch.
const (
	// OpRead reads N sectors starting at LBA.
	OpRead Op = iota
	// OpWrite writes the payload sectors at LBA, which must equal the
	// target zone's write pointer when the write dispatches.
	OpWrite
	// OpAppend writes the payload sectors at the zone's write pointer,
	// chosen by the device at dispatch; the completion carries the
	// assigned LBA.
	OpAppend
	// OpFlush drains Zone's write buffer (Zone == -1 flushes every zone
	// and acts as a full write barrier).
	OpFlush
	// OpReset resets Zone.
	OpReset
	// OpClose closes Zone, draining its buffer.
	OpClose
	// OpFinish transitions Zone to FULL, draining its buffer.
	OpFinish
)

// String names the op as the NVMe command it models.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpAppend:
		return "zone_append"
	case OpFlush:
		return "flush"
	case OpReset:
		return "zone_reset"
	case OpClose:
		return "zone_close"
	case OpFinish:
		return "zone_finish"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// WriteClass reports whether the op takes its zone's write lock.
func (o Op) WriteClass() bool { return o != OpRead }

// Request describes one host command to submit.
type Request struct {
	Op       Op
	LBA      int64    // OpRead/OpWrite: start sector
	N        int64    // OpRead: sectors to read
	Zone     int      // OpAppend/OpFlush/OpReset/OpClose/OpFinish target
	Payloads [][]byte // OpWrite/OpAppend: one entry per sector (entries may be nil)

	// Dst, when set on an OpRead, is where the bytes go: exactly N sectors,
	// filled at dispatch (unwritten sectors as zeros), and the completion
	// carries no Data. The submitter must leave it alone until the command
	// is reaped; after a failed read its contents are unspecified.
	Dst []byte
}

// Tag identifies a submitted command until its completion is reaped. Tags
// are assigned in submission order and are unique for the controller's
// lifetime; 0 is never a valid tag.
type Tag uint64

// Completion is one finished command, delivered through its submission
// queue's paired completion queue in virtual completion-time order — which
// is not submission order: completions are reordered by when the simulated
// hardware finished them.
type Completion struct {
	Tag   Tag
	Queue int
	Op    Op
	Zone  int   // target zone (-1 for a flush-all)
	LBA   int64 // start sector; for OpAppend the device-assigned LBA
	N     int64 // sectors the command covered

	// Data holds an OpRead's per-sector payloads (nil entries = unwritten).
	// It is nil when the command carries none: writes, failed reads, reads
	// delivered into the request's Dst, and reads covering only unwritten
	// sectors (which read back as zeros).
	// The controller copies read data out of the device at completion time
	// — the host boundary — so the slices are owned by the reaper and stay
	// valid indefinitely. Pass them to Recycle when done to keep the
	// steady-state read path allocation-free.
	Data [][]byte
	Err  error // the backend's error, if the command failed

	// Status classifies Err as an NVMe-style status code (StatusOK when
	// the command succeeded), so pollers can branch without unwrapping
	// error chains.
	Status Status

	Submitted  sim.Time // when the command entered the submission queue
	Dispatched sim.Time // when the arbiter handed it to the FTL
	Done       sim.Time // when the simulated hardware completed it
}

// Latency returns the command's full virtual submission-to-completion time.
func (c Completion) Latency() sim.Duration { return c.Done.Sub(c.Submitted) }

// QueueDelay returns the virtual time spent queued before dispatch.
func (c Completion) QueueDelay() sim.Duration { return c.Dispatched.Sub(c.Submitted) }

// Backend is the device surface the controller dispatches into. *ftl.FTL
// implements it; the controller owns all serialization, so the backend may
// be strictly single-entrant.
//
// Reads have one contract at this boundary: ReadInto fills a caller-provided
// destination with views borrowed from the device, and the controller copies
// them out before the next backend call. The controller never calls Read; it
// stays in the interface only because the frozen bench/trace.go calls
// b.be.Read through host.Backend — the next benchmark PR drops both.
type Backend interface {
	Read(at sim.Time, lba, n int64) ([][]byte, sim.Time, error)
	ReadInto(at sim.Time, lba, n int64, dst [][]byte) (sim.Time, error)
	Write(at sim.Time, lba int64, payloads [][]byte) (sim.Time, error)
	Append(at sim.Time, zone int, payloads [][]byte) (int64, sim.Time, error)
	Flush(at sim.Time, zone int) (sim.Time, error)
	FlushAll(at sim.Time) (sim.Time, error)
	ResetZone(at sim.Time, zone int) (sim.Time, error)
	CloseZone(at sim.Time, zone int) (sim.Time, error)
	FinishZone(at sim.Time, zone int) (sim.Time, error)
	NumZones() int
	ZoneCapSectors() int64
	TotalSectors() int64
	Recorder() *obs.Recorder
}

// Config sizes the controller's queue pairs.
type Config struct {
	Queues int // submission/completion queue pairs (default 4)
	Depth  int // outstanding commands per queue (default 64)
}

// Defaults mirroring a small consumer NVMe controller.
const (
	DefaultQueues = 4
	DefaultDepth  = 64
)

func (c Config) withDefaults() Config {
	if c.Queues <= 0 {
		c.Queues = DefaultQueues
	}
	if c.Depth <= 0 {
		c.Depth = DefaultDepth
	}
	return c
}

// ErrQueueFull is returned by Submit when the target queue already holds
// Depth outstanding (unreaped) commands.
var ErrQueueFull = errors.New("host: submission queue full")

// request is a submitted, not-yet-dispatched command.
type request struct {
	tag       Tag
	queue     int
	submitted sim.Time
	req       Request
	zn        int // target zone of the write lock, computed once at submit (-1 for reads)

	// key is the request's heap key: the ready time computed when it was
	// last sifted. Zone write locks only ever push ready times later, so a
	// stored key is a lower bound on the true ready time — the arbiter
	// refreshes the root's key lazily before trusting it (see advance).
	key sim.Time
}

// pendingHeap orders undispatched requests by (key, tag): earliest stored
// ready time first, and among equal times the lower tag, i.e. the earlier
// submission. Ties thus break the same way on every run.
type pendingHeap []*request

func (h pendingHeap) Len() int { return len(h) }
func (h pendingHeap) Less(i, j int) bool {
	if h[i].key != h[j].key {
		return h[i].key < h[j].key
	}
	return h[i].tag < h[j].tag
}
func (h pendingHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *pendingHeap) Push(x any)   { *h = append(*h, x.(*request)) }
func (h *pendingHeap) Pop() any {
	old := *h
	n := len(old)
	r := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return r
}

// zone returns the zone the request's write lock targets (-1 for reads and
// flush-alls, which lock nothing / everything respectively).
func (r *request) zone(zoneCap int64) int {
	switch r.req.Op {
	case OpRead:
		return -1
	case OpWrite:
		return int(r.req.LBA / zoneCap)
	default:
		return r.req.Zone
	}
}

// Controller is the multi-queue host interface over one backend device. It
// is used by one goroutine at a time: it holds no lock, and conzone.Device
// is the type to share. See the package comment for the determinism
// contract.
type Controller struct {
	be  Backend
	cfg Config

	nextTag Tag
	pending pendingHeap // submitted, undispatched, across all queues

	cqs   []complQueue // per-queue completion queues, min-ordered on (Done, Tag)
	out   []int        // per-queue outstanding (submitted - reaped)
	unfin int          // total submitted-but-unreaped, across all queues

	// Cached device geometry (static for the backend's lifetime): avoids an
	// interface call per validate/readyTime/dispatch on the hot path.
	zcap   int64
	total  int64
	nzones int

	// Freelists keeping the steady-state submit/dispatch/reap cycle
	// allocation-free: spent request records, read-payload sector buffers
	// and the [][]byte containers that carry them (returned via Recycle).
	freeReq  []*request
	bufFree  [][]byte
	contFree [][][]byte

	zoneFree []sim.Time // per-zone write-lock horizon
	maxDone  sim.Time   // latest completion the controller has produced

	dispatched      int64 // commands dispatched for the controller's lifetime
	lostCompletions int64 // completions the controller lost track of (invariant failures)
	debugLoseSync   int   // sync completions to swallow at dispatch; only export_test.go sets it
}

// New builds a controller over the backend. Zero Config fields take the
// package defaults.
func New(be Backend, cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if cfg.Queues > 1<<16 {
		return nil, fmt.Errorf("host: %d queues (max %d)", cfg.Queues, 1<<16)
	}
	c := &Controller{
		be:       be,
		cfg:      cfg,
		nextTag:  1,
		cqs:      make([]complQueue, cfg.Queues+1), // +1: internal sync queue
		out:      make([]int, cfg.Queues+1),
		zoneFree: make([]sim.Time, be.NumZones()),
	}
	c.zcap = be.ZoneCapSectors()
	c.total = be.TotalSectors()
	c.nzones = be.NumZones()
	return c, nil
}

// Queues returns the number of I/O submission queues.
func (c *Controller) Queues() int { return c.cfg.Queues }

// Configuration returns the queue layout in effect (defaults resolved), so
// a remount can rebuild an equivalent controller.
func (c *Controller) Configuration() Config { return c.cfg }

// Depth returns the per-queue outstanding-command limit.
func (c *Controller) Depth() int { return c.cfg.Depth }

// syncQueue is the internal queue index Exec submits on;
// it has no depth limit, like an admin queue.
func (c *Controller) syncQueue() int { return c.cfg.Queues }

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
	return c.submit(at, q, &req)
}

// submit validates and enqueues. req is a pointer only to spare the hot
// path two struct copies; it is never retained.
func (c *Controller) submit(at sim.Time, q int, req *Request) (Tag, error) {
	if err := c.validate(req); err != nil {
		return 0, err
	}
	if req.Op == OpRead && len(c.pending) == 0 {
		// Fast path: a read submitted with nothing pending is necessarily
		// the arbiter's next pick — reads never wait on a zone write lock,
		// so its ready time is its submission instant, and every command
		// submitted later carries a larger tag (and, for a submitter whose
		// submission instants are non-decreasing, a ready time no
		// earlier). Dispatching it immediately reserves the simulated
		// hardware in exactly the order the batch arbiter would, without a
		// round trip through the pending heap.
		tag := c.nextTag
		c.nextTag++
		c.out[q]++
		c.unfin++
		c.dispatchRead(tag, q, at, at, req.LBA, req.N, req.Dst)
		return tag, nil
	}
	tag := c.nextTag
	c.nextTag++
	var r *request
	if n := len(c.freeReq); n > 0 {
		r = c.freeReq[n-1]
		c.freeReq[n-1] = nil
		c.freeReq = c.freeReq[:n-1]
	} else {
		r = new(request)
	}
	r.tag, r.queue, r.submitted = tag, q, at
	r.req = *req // a statement of its own: in the tuple above it is copied twice, through a temporary
	r.zn = r.zone(c.zcap)
	r.key = c.readyTime(r)
	heap.Push(&c.pending, r)
	c.out[q]++
	c.unfin++
	return tag, nil
}

// validate rejects requests the controller cannot even queue: unknown ops,
// zone ids it cannot lock, writes spanning zones. Everything else is the
// simulated device's job and surfaces in the Completion.
func (c *Controller) validate(req *Request) error {
	zoneCap := c.zcap
	switch req.Op {
	case OpRead:
		if req.N <= 0 {
			return fmt.Errorf("host: read of %d sectors", req.N)
		}
		if req.LBA < 0 || req.LBA+req.N > c.total {
			return fmt.Errorf("host: read [%d,%d) outside the namespace", req.LBA, req.LBA+req.N)
		}
		if req.Dst != nil && int64(len(req.Dst)) != req.N*units.Sector {
			return fmt.Errorf("host: read of %d sectors into a %d-byte destination", req.N, len(req.Dst))
		}
	case OpWrite:
		n := int64(len(req.Payloads))
		if n == 0 {
			return errors.New("host: write without payload sectors")
		}
		if req.LBA < 0 || req.LBA+n > c.total {
			return fmt.Errorf("host: write [%d,%d) outside the namespace", req.LBA, req.LBA+n)
		}
		if req.LBA/zoneCap != (req.LBA+n-1)/zoneCap {
			return fmt.Errorf("host: write [%d,%d) crosses a zone boundary", req.LBA, req.LBA+n)
		}
	case OpAppend:
		if len(req.Payloads) == 0 {
			return errors.New("host: append without payload sectors")
		}
		if req.Zone < 0 || req.Zone >= c.nzones {
			return fmt.Errorf("host: append to invalid zone %d", req.Zone)
		}
		if int64(len(req.Payloads)) > zoneCap {
			return fmt.Errorf("host: append of %d sectors exceeds the zone capacity %d", len(req.Payloads), zoneCap)
		}
	case OpFlush:
		if req.Zone < -1 || req.Zone >= c.nzones {
			return fmt.Errorf("host: flush of invalid zone %d", req.Zone)
		}
	case OpReset, OpClose, OpFinish:
		if req.Zone < 0 || req.Zone >= c.nzones {
			return fmt.Errorf("host: %v of invalid zone %d", req.Op, req.Zone)
		}
	default:
		return fmt.Errorf("host: unknown op %v", req.Op)
	}
	return nil
}

// readyTime returns when the request may dispatch: its submission instant,
// pushed back by the zone write lock for write-class commands (a flush-all
// waits for every zone's lock — it is a full write barrier).
func (c *Controller) readyTime(r *request) sim.Time {
	ready := r.submitted
	if !r.req.Op.WriteClass() {
		return ready
	}
	if r.req.Op == OpFlush && r.req.Zone < 0 {
		for _, t := range c.zoneFree {
			if t > ready {
				ready = t
			}
		}
		return ready
	}
	if z := r.zn; z >= 0 && z < len(c.zoneFree) && c.zoneFree[z] > ready {
		ready = c.zoneFree[z]
	}
	return ready
}

// advance is the arbiter: it drains the pending set in deterministic
// (ready time, tag) order, dispatching each command into the backend and
// sorting its completion into the owning completion queue.
//
// The pending set is a min-heap on (key, tag) whose keys may be stale, but
// only low: dispatching a write-class command pushes its zone's lock horizon
// forward, which can only raise the ready time of a queued command, so every
// stored key is a lower bound on its command's ready time. Before trusting
// the root, advance recomputes its ready time; if it moved, the key is
// updated and the root sifted down (heap.Fix), and the new root is checked
// in turn. A root whose key is fresh is no later than any other command's
// lower bound, hence no later than its ready time: it is the (ready time,
// tag) minimum, and dispatching it keeps the order exact.
func (c *Controller) advance() {
	for c.pending.Len() > 0 {
		r := c.pending[0]
		if ready := c.readyTime(r); ready != r.key {
			r.key = ready
			heap.Fix(&c.pending, 0)
			continue
		}
		heap.Pop(&c.pending)
		c.dispatch(r, r.key)
		r.req = Request{} // drop the payload container reference
		c.freeReq = append(c.freeReq, r)
	}
}

// dispatch executes one command at its dispatch instant and queues the
// completion.
func (c *Controller) dispatch(r *request, at sim.Time) {
	if r.req.Op == OpRead {
		c.dispatchRead(r.tag, r.queue, r.submitted, at, r.req.LBA, r.req.N, r.req.Dst)
		return
	}
	zone := r.zn
	lba := r.req.LBA
	n := r.req.N
	var done sim.Time
	var err error
	switch r.req.Op {
	case OpWrite:
		n = int64(len(r.req.Payloads))
		done, err = c.be.Write(at, lba, r.req.Payloads)
	case OpAppend:
		n = int64(len(r.req.Payloads))
		lba, done, err = c.be.Append(at, r.req.Zone, r.req.Payloads)
	case OpFlush:
		if r.req.Zone < 0 {
			done, err = c.be.FlushAll(at)
		} else {
			done, err = c.be.Flush(at, r.req.Zone)
		}
	case OpReset:
		done, err = c.be.ResetZone(at, r.req.Zone)
	case OpClose:
		done, err = c.be.CloseZone(at, r.req.Zone)
	case OpFinish:
		done, err = c.be.FinishZone(at, r.req.Zone)
	}
	if done < at {
		done = at
	}

	// Release the zone write lock at command completion: the next
	// write-class command of the zone may dispatch then, and no earlier —
	// writes inside one zone are serialized, mq-deadline style. (Every op
	// here is write-class; reads took the dispatchRead path above.)
	if r.req.Op == OpFlush && r.req.Zone < 0 {
		for z := range c.zoneFree {
			if done > c.zoneFree[z] {
				c.zoneFree[z] = done
			}
		}
	} else if zone >= 0 && zone < len(c.zoneFree) && done > c.zoneFree[zone] {
		c.zoneFree[zone] = done
	}
	c.complete(r.tag, r.queue, r.req.Op, zone, lba, n, nil, err, r.submitted, at, done)
}

// dispatchRead executes one read at its dispatch instant and queues the
// completion: the OpRead arm of dispatch, shared with submit's immediate
// fast path. Reads never hold a zone write lock, so none of dispatch's
// lock bookkeeping applies.
func (c *Controller) dispatchRead(tag Tag, q int, submitted, at sim.Time, lba, n int64, dst []byte) {
	// The backend fills a recycled container with borrowed device views,
	// and the controller copies them out immediately — while the views are
	// still valid — so the completion's data is owned and survives however
	// long the reaper sits on it: into the submitter's flat destination when
	// the request names one, into pooled sector buffers otherwise.
	data := c.getContainer(int(n))
	done, err := c.be.ReadInto(at, lba, n, data)
	carries := false
	if dst != nil {
		if err == nil {
			flatten(dst, data)
		}
	} else if err == nil {
		for i, p := range data {
			if p == nil {
				continue
			}
			b := c.getSectorBuf()
			copy(b, p)
			data[i] = b
			carries = true
		}
	}
	if err != nil || !carries {
		// A failed read, one delivered into the request's Dst, or one
		// covering only unwritten sectors (which read back as zeros) carries
		// no payload: return the container now and complete with nil Data,
		// so the reaper has nothing to Recycle.
		c.contFree = append(c.contFree, data[:0])
		data = nil
	}
	if done < at {
		done = at
	}
	c.complete(tag, q, OpRead, -1, lba, n, data, err, submitted, at, done)
}

// complete is the one completion tail of dispatch and dispatchRead: it
// counts the dispatch, records the host-queue span (submission to dispatch;
// the event is not even built when observation is off) and writes the
// completion's fields straight into its slot in queue q's completion queue,
// so the value is stored once and copied once more only when reaped.
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
	if c.debugLoseSync > 0 && q == c.syncQueue() {
		// Corruption hook armed: swallow this sync completion so Exec's
		// lost-completion recovery path runs (armed from export_test.go).
		c.debugLoseSync--
		return
	}
	comp := c.cqs[q].push(done, tag)
	comp.Tag, comp.Queue, comp.Op, comp.Zone, comp.LBA, comp.N = tag, q, op, zone, lba, n
	comp.Data, comp.Err, comp.Status = data, err, StatusOf(err)
	comp.Submitted, comp.Dispatched, comp.Done = submitted, at, done
}

// flatten is the flat read delivery: each borrowed view is copied into its
// sector of dst and the sectors without one are cleared, so dst needs no
// zeroing beforehand and the bytes are copied exactly once.
func flatten(dst []byte, views [][]byte) {
	for i, p := range views {
		slot := dst[int64(i)*units.Sector : int64(i+1)*units.Sector]
		if p == nil {
			clear(slot)
		} else {
			copy(slot, p)
		}
	}
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
	return c.reapInto(q, max, dst)
}

// reapInto appends up to max completions from queue q to dst, popping them
// in (Done, Tag) order.
func (c *Controller) reapInto(q, max int, dst []Completion) []Completion {
	cq := &c.cqs[q]
	n := cq.len()
	if n == 0 {
		return dst
	}
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
func (c *Controller) Recycle(data [][]byte) {
	if data == nil {
		return
	}
	for i, p := range data {
		if p != nil && int64(len(p)) == units.Sector {
			c.bufFree = append(c.bufFree, p)
		}
		data[i] = nil
	}
	c.contFree = append(c.contFree, data[:0])
}

// getContainer returns an n-entry container with all entries nil, reusing a
// recycled one when available.
func (c *Controller) getContainer(n int) [][]byte {
	if k := len(c.contFree); k > 0 {
		d := c.contFree[k-1]
		c.contFree[k-1] = nil
		c.contFree = c.contFree[:k-1]
		if cap(d) >= n {
			d = d[:n]
			for i := range d {
				d[i] = nil
			}
			return d
		}
	}
	return make([][]byte, n)
}

// getSectorBuf returns a sector-sized payload buffer, reusing a recycled
// one when available.
func (c *Controller) getSectorBuf() []byte {
	if k := len(c.bufFree); k > 0 {
		b := c.bufFree[k-1]
		c.bufFree[k-1] = nil
		c.bufFree = c.bufFree[:k-1]
		return b
	}
	return make([]byte, units.Sector)
}

// Wait dispatches everything pending and reaps exactly the given command's
// completion, leaving every other completion queued for its poller. It
// reports false for a tag that was never submitted or was already reaped.
func (c *Controller) Wait(tag Tag) (Completion, bool) {
	c.advance()
	// After advance every unreaped command sits in some completion queue,
	// so an exhaustive scan is authoritative: a missing tag was never
	// submitted or is already reaped.
	for q := range c.cqs {
		if comp, ok := c.take(q, tag); ok {
			return comp, true
		}
	}
	return Completion{}, false
}

// take removes the tagged completion from queue q.
func (c *Controller) take(q int, tag Tag) (Completion, bool) {
	comp, ok := c.cqs[q].takeTag(tag)
	if !ok {
		return Completion{}, false
	}
	c.out[q]--
	c.unfin--
	return comp, true
}

// Kick dispatches every pending command without reaping any completion,
// returning the latest completion instant the controller has produced.
// Management paths use it as a barrier before touching device state
// directly.
func (c *Controller) Kick() sim.Time {
	c.advance()
	return c.maxDone
}

// Idle reports whether no command is pending or awaiting reap anywhere,
// including the internal synchronous queue.
func (c *Controller) Idle() bool {
	return c.pending.Len() == 0 && c.unfin == 0
}

// Dispatched returns how many commands the arbiter has dispatched over the
// controller's lifetime.
func (c *Controller) Dispatched() int64 {
	return c.dispatched
}

// Exec runs one command through the full queue path at depth 1: submit on
// the internal queue, dispatch everything, reap this command. It is the one
// synchronous entry, which keeps the traditional synchronous API a strict
// special case of the asynchronous one. req is a pointer for submit's
// reason: at ten words a Request no longer travels in registers, and a
// by-value hand-over here cost a synchronous write 10 ns of 111.
func (c *Controller) Exec(at sim.Time, req *Request) (Completion, error) {
	tag, err := c.submit(at, c.syncQueue(), req)
	if err != nil {
		return Completion{}, err
	}
	c.advance()
	if comp, ok := c.take(c.syncQueue(), tag); ok {
		if comp.Err != nil {
			return comp, comp.Err
		}
		return comp, nil
	}
	// advance() dispatches every pending command, so the completion must be
	// present; its absence means the controller's bookkeeping is corrupt.
	// Synthesize an internal-error completion instead of panicking: the
	// caller gets a typed error, the lost-completion counter records the
	// invariant failure, and the host auditor (internal/check) reports it
	// with the controller's state attached.
	c.lostCompletions++
	c.out[c.syncQueue()]--
	c.unfin--
	comp := Completion{
		Tag: tag, Queue: c.syncQueue(), Op: req.Op, Zone: -1, LBA: -1,
		Err:       fmt.Errorf("%w: tag %d (%v)", ErrLostCompletion, tag, req.Op),
		Status:    StatusInternal,
		Submitted: at, Dispatched: at, Done: at,
	}
	return comp, comp.Err
}

// The synchronous wrappers below make the Controller a drop-in
// workload.Device / workload.Zoned / workload.ZoneFlusher: each call is the
// QD=1 special case of the queue path, so experiments comparing sync and
// async traffic exercise the same arbiter, zone locks and instrumentation.

// execDone runs req through Exec and returns its completion instant, or at
// and the error when it failed.
func (c *Controller) execDone(at sim.Time, req *Request) (sim.Time, error) {
	comp, err := c.Exec(at, req)
	if err != nil {
		return at, err
	}
	return comp.Done, nil
}

// Write submits a write and waits for its completion.
func (c *Controller) Write(at sim.Time, lba int64, payloads [][]byte) (sim.Time, error) {
	return c.execDone(at, &Request{Op: OpWrite, LBA: lba, Payloads: payloads})
}

// ReadInto submits a read and waits for it, filling out (exactly n
// entries) with the sectors read, nil for an unwritten one — the contract
// of every device's ReadInto. The views are the controller's pooled sector
// buffers, returned to the pool as the call ends: they stay valid until the
// controller's next call, and a steady-state read allocates nothing.
func (c *Controller) ReadInto(at sim.Time, lba, n int64, out [][]byte) (sim.Time, error) {
	if int64(len(out)) != n {
		return at, fmt.Errorf("host: ReadInto dst holds %d entries, want %d", len(out), n)
	}
	comp, err := c.Exec(at, &Request{Op: OpRead, LBA: lba, N: n})
	if err != nil {
		return at, err
	}
	copy(out, comp.Data)
	clear(out[len(comp.Data):]) // a read of only unwritten sectors carries no Data
	c.Recycle(comp.Data)
	return comp.Done, nil
}

// Read submits a read and waits for its data. The returned slices are
// owned by the caller; hand them to Recycle when done. It is the
// allocating form, kept because the frozen bench/ names it; everything
// else in the module reads through ReadInto or Exec.
func (c *Controller) Read(at sim.Time, lba, n int64) ([][]byte, sim.Time, error) {
	comp, err := c.Exec(at, &Request{Op: OpRead, LBA: lba, N: n})
	if err != nil {
		return nil, at, err
	}
	return comp.Data, comp.Done, nil
}

// Flush submits a single-zone flush and waits for it.
func (c *Controller) Flush(at sim.Time, zone int) (sim.Time, error) {
	return c.execDone(at, &Request{Op: OpFlush, Zone: zone})
}

// FlushAll submits a device-wide flush barrier and waits for it.
func (c *Controller) FlushAll(at sim.Time) (sim.Time, error) {
	return c.execDone(at, &Request{Op: OpFlush, Zone: -1})
}

// ResetZone submits a zone reset and waits for it.
func (c *Controller) ResetZone(at sim.Time, zone int) (sim.Time, error) {
	return c.execDone(at, &Request{Op: OpReset, Zone: zone})
}

// CloseZone submits a zone close and waits for it.
func (c *Controller) CloseZone(at sim.Time, zone int) (sim.Time, error) {
	return c.execDone(at, &Request{Op: OpClose, Zone: zone})
}

// FinishZone submits a zone finish and waits for it.
func (c *Controller) FinishZone(at sim.Time, zone int) (sim.Time, error) {
	return c.execDone(at, &Request{Op: OpFinish, Zone: zone})
}

// Recorder returns the backend's lifecycle recorder (nil when disabled).
func (c *Controller) Recorder() *obs.Recorder { return c.be.Recorder() }

// NumZones returns the backend's zone count.
func (c *Controller) NumZones() int { return c.be.NumZones() }

// ZoneCapSectors returns the backend's writable sectors per zone.
func (c *Controller) ZoneCapSectors() int64 { return c.be.ZoneCapSectors() }

// TotalSectors returns the backend's logical capacity in sectors.
func (c *Controller) TotalSectors() int64 { return c.be.TotalSectors() }
