package conzone

// This file is the asynchronous face of the Device: NVMe-style multi-queue
// submission with queue-depth modeling and Zone Append, layered over
// internal/host. The synchronous API in conzone.go is the queue-depth-1
// special case of the same path.

import (
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
// bytes; divide byte offsets by SectorSize.
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

// Submit enqueues the request on submission queue q at the device's
// current virtual time and returns its tag. The command executes when the
// arbiter next runs (Poll, Wait, or any synchronous operation); its result
// arrives through queue q's completion queue. Submit fails fast with
// ErrQueueFull when q already holds Host().Depth() unreaped commands; waiting
// on one of the submitter's own tags frees a slot.
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
