package conzone

// This file is the asynchronous face of the Device: NVMe-style multi-queue
// submission with queue-depth modeling and Zone Append, layered over
// internal/host. The synchronous API in conzone.go is the queue-depth-1
// special case of the same path.

import (
	"errors"
	"fmt"

	"github.com/conzone/conzone/internal/host"
)

// Host-interface types re-exported for asynchronous submitters.
type (
	// HostRequest describes one command to queue on the device.
	HostRequest = host.Request
	// HostCompletion is one finished command with its timing.
	HostCompletion = host.Completion
	// HostOp identifies a host command kind.
	HostOp = host.Op
	// Tag identifies a submitted command until its completion is reaped.
	Tag = host.Tag
	// HostConfig sizes the device's submission/completion queue pairs.
	HostConfig = host.Config
)

// Host command kinds. Note: HostRequest addresses are in sectors, not
// bytes; divide byte offsets by SectorSize (AsyncWriter does this for you).
const (
	OpRead   = host.OpRead
	OpWrite  = host.OpWrite
	OpAppend = host.OpAppend
	OpFlush  = host.OpFlush
	OpReset  = host.OpReset
	OpClose  = host.OpClose
	OpFinish = host.OpFinish
)

// ErrQueueFull is returned by Submit when the target submission queue
// already holds its depth in unreaped commands.
var ErrQueueFull = host.ErrQueueFull

// ConfigureQueues replaces the device's host interface with queues
// submission/completion queue pairs of the given depth. The device must be
// idle: no queued or unreaped command. Values <= 0 select the defaults.
func (d *Device) ConfigureQueues(queues, depth int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.h.Idle() {
		return fmt.Errorf("conzone: cannot reconfigure queues with commands in flight")
	}
	return d.mount(d.f, host.Config{Queues: queues, Depth: depth}, d.now)
}

// QueueCount returns the number of submission queues.
func (d *Device) QueueCount() int { return d.h.Queues() }

// QueueDepth returns the per-queue outstanding-command limit.
func (d *Device) QueueDepth() int { return d.h.Depth() }

// Submit enqueues the request on submission queue q at the device's
// current virtual time and returns its tag. The command executes when the
// arbiter next runs (Poll, Wait, or any synchronous operation); its result
// arrives through queue q's completion queue. Submit fails fast with
// ErrQueueFull when q already holds QueueDepth unreaped commands.
func (d *Device) Submit(q int, req HostRequest) (Tag, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.h.Submit(d.now, q, req)
}

// SubmitAt enqueues the request with an explicit virtual submission
// instant (experiment-harness API). Dispatch order across all queued
// commands is by (ready time, tag), never by call order alone.
func (d *Device) SubmitAt(at Time, q int, req HostRequest) (Tag, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.h.Submit(at, q, req)
}

// Poll dispatches all queued commands and reaps up to max completions from
// queue q in virtual completion order (max <= 0 reaps all available). The
// device clock advances to the latest reaped completion.
func (d *Device) Poll(q, max int) []HostCompletion {
	d.mu.Lock()
	defer d.mu.Unlock()
	comps := d.h.Poll(q, max)
	for _, c := range comps {
		d.advance(c.Done)
	}
	return comps
}

// Wait dispatches all queued commands and reaps exactly the given
// command's completion, leaving other completions queued for their
// pollers. It reports false for an unknown or already-reaped tag.
func (d *Device) Wait(tag Tag) (HostCompletion, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	comp, ok := d.h.Wait(tag)
	if ok {
		d.advance(comp.Done)
	}
	return comp, ok
}

// AsyncWriter streams writes and Zone Appends through one submission queue
// while keeping up to depth commands outstanding, waiting for the oldest
// when the window fills. Errors are sticky: the first failed command stops
// the stream and every later call reports it. An AsyncWriter is not safe
// for concurrent use; open one per goroutine (on distinct queues).
type AsyncWriter struct {
	d     *Device
	queue int
	depth int

	err      error
	inflight []Tag
	index    map[Tag]int // tag -> submission index
	offsets  []int64     // per submission: assigned byte offset, -1 until completed
	attempts int64       // Submit calls issued, including queue-full retries
}

// NewAsyncWriter returns a writer submitting on queue q with a window of
// depth outstanding commands (depth <= 0 or beyond the queue depth uses
// the queue depth).
func (d *Device) NewAsyncWriter(q, depth int) (*AsyncWriter, error) {
	if q < 0 || q >= d.h.Queues() {
		return nil, fmt.Errorf("conzone: queue %d out of range [0,%d)", q, d.h.Queues())
	}
	if depth <= 0 || depth > d.h.Depth() {
		depth = d.h.Depth()
	}
	return &AsyncWriter{d: d, queue: q, depth: depth, index: make(map[Tag]int)}, nil
}

// Err returns the writer's sticky error: the first submission or
// completion failure, if any.
func (w *AsyncWriter) Err() error { return w.err }

// Write queues a write of data at byte offset off (which must equal the
// target zone's write pointer when the command dispatches) and returns the
// submission's index. The write may still fail asynchronously; Flush — or
// a later call — surfaces the error.
func (w *AsyncWriter) Write(off int64, data []byte) (int, error) {
	if w.err != nil {
		return -1, w.err
	}
	if err := checkAlign(off, len(data)); err != nil {
		w.err = err
		return -1, err
	}
	return w.submit(HostRequest{Op: OpWrite, LBA: off / SectorSize, Payloads: toSectors(data)})
}

// Append queues a Zone Append of data to the zone and returns the
// submission's index. The device assigns the in-zone offset at dispatch;
// once the command completes (window turnover or Flush), AssignedOffset
// reports where the data landed.
func (w *AsyncWriter) Append(zone int, data []byte) (int, error) {
	if w.err != nil {
		return -1, w.err
	}
	if err := checkAlign(0, len(data)); err != nil {
		w.err = err
		return -1, err
	}
	return w.submit(HostRequest{Op: OpAppend, Zone: zone, Payloads: toSectors(data)})
}

// submit opens window space and queues the request. A shared queue can be
// full even when the writer's own window has room (another submitter holds
// the remaining slots); resubmitting without waiting would spin forever at
// one virtual instant, so the writer frees a slot by reaping its own oldest
// completion before each retry, and gives up only when none of the queue's
// occupants are its own.
func (w *AsyncWriter) submit(req HostRequest) (int, error) {
	for len(w.inflight) >= w.depth {
		if err := w.reapOldest(); err != nil {
			return -1, err
		}
	}
	w.attempts++
	tag, err := w.d.Submit(w.queue, req)
	for errors.Is(err, ErrQueueFull) && len(w.inflight) > 0 {
		if rerr := w.reapOldest(); rerr != nil {
			return -1, rerr
		}
		w.attempts++
		tag, err = w.d.Submit(w.queue, req)
	}
	if err != nil {
		w.err = err
		return -1, err
	}
	i := len(w.offsets)
	w.offsets = append(w.offsets, -1)
	w.index[tag] = i
	w.inflight = append(w.inflight, tag)
	return i, nil
}

// reapOldest waits for the writer's oldest outstanding command.
func (w *AsyncWriter) reapOldest() error {
	tag := w.inflight[0]
	w.inflight = w.inflight[1:]
	comp, ok := w.d.Wait(tag)
	if !ok {
		w.err = fmt.Errorf("conzone: completion of tag %d reaped elsewhere", tag)
		return w.err
	}
	if i, found := w.index[tag]; found {
		if comp.Err == nil && comp.LBA >= 0 {
			w.offsets[i] = comp.LBA * SectorSize
		}
		delete(w.index, tag)
	}
	if comp.Err != nil && w.err == nil {
		w.err = comp.Err
	}
	return w.err
}

// Flush waits for every outstanding command and returns the writer's
// sticky error state. The writer is reusable afterwards if no error
// occurred.
func (w *AsyncWriter) Flush() error {
	for len(w.inflight) > 0 {
		if err := w.reapOldest(); err != nil {
			// Drain the remaining window so the queue slots free up,
			// preserving the first error.
			for len(w.inflight) > 0 {
				w.d.Wait(w.inflight[0])
				w.inflight = w.inflight[1:]
			}
			return err
		}
	}
	return w.err
}

// Outstanding returns how many of the writer's commands are in flight.
func (w *AsyncWriter) Outstanding() int { return len(w.inflight) }

// SubmitAttempts returns how many Submit calls the writer has issued,
// including retries after a full queue. With the queue to itself the count
// equals the commands written; regression tests pin it to prove a full
// shared queue costs one completion wait per retry instead of a busy loop.
func (w *AsyncWriter) SubmitAttempts() int64 { return w.attempts }

// AssignedOffset returns the byte offset the device assigned to submission
// i (as returned by Write or Append), or -1 while the command is still
// outstanding or after it failed.
func (w *AsyncWriter) AssignedOffset(i int) int64 {
	if i < 0 || i >= len(w.offsets) {
		return -1
	}
	return w.offsets[i]
}
