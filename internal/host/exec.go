package host

import (
	"fmt"

	"github.com/conzone/conzone/internal/obs"
	"github.com/conzone/conzone/internal/sim"
)

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
		return comp, comp.Err
	}
	// advance dispatched everything, so a missing completion means corrupt
	// bookkeeping. Rather than panic, synthesize an internal-error
	// completion and count the invariant failure, which the host auditor
	// (internal/check) reports with the controller's state attached.
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
// workload.Device and workload.Zoned, each one Exec: sync and async traffic
// exercise the same arbiter, locks and recorder.
// execDone returns the completion instant, or at and the error.
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
