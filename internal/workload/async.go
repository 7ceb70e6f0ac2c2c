package workload

import (
	"errors"
	"fmt"

	"github.com/conzone/conzone/internal/fault"
	"github.com/conzone/conzone/internal/host"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/stats"
	"github.com/conzone/conzone/internal/units"
)

// Async is the queued-device surface jobs with QueueDepth > 1 drive: the
// multi-queue host controller (host.Controller implements it). The
// workload runner is the deterministic submitter the host package's
// determinism contract is written for — a single event loop issues every
// submission, so tag order is a pure function of the job.
type Async interface {
	Device
	Submit(at sim.Time, q int, req host.Request) (host.Tag, error)
	Wait(tag host.Tag) (host.Completion, bool)
	// Recycle returns a reaped read's Data to the device's buffer pools.
	Recycle(data [][]byte)
	Queues() int
	Depth() int
}

// inflightOp is one submitted, unreaped command of a workload thread.
type inflightOp struct {
	tag   host.Tag
	bytes int64 // 0 for bookkeeping commands (wrap resets) excluded from stats
}

// runAsync executes the job through the device's submission queues,
// keeping up to job.QueueDepth commands outstanding per thread. The event
// loop mirrors the synchronous driver: the thread with the earliest clock
// acts next — submitting if its window has room and work remains, else
// reaping its oldest completion. Virtual-time completion overlap is what
// makes queue depth matter: all of a window's commands are submitted at
// nearly the same virtual instant, so reads fan out across idle chips
// while same-zone writes still serialize on the zone write lock.
func runAsync(dev Async, job Job) (Result, error) {
	depth := job.depth()
	queues := job.Queues
	if queues == 0 {
		queues = job.NumJobs
		if queues > dev.Queues() {
			queues = dev.Queues()
		}
	}
	if queues > dev.Queues() {
		return Result{}, fmt.Errorf("workload %s: %d queues requested, device has %d",
			job.Name, queues, dev.Queues())
	}
	threadsPerQueue := (job.NumJobs + queues - 1) / queues
	if threadsPerQueue*depth > dev.Depth() {
		return Result{}, fmt.Errorf("workload %s: %d threads x depth %d exceed the device queue depth %d",
			job.Name, threadsPerQueue, depth, dev.Depth())
	}

	var zdev Zoned
	var zoneBytes int64
	if z, ok := dev.(Zoned); ok {
		zdev = z
		zoneBytes = z.ZoneCapSectors() * units.Sector
	}
	threads, err := makeThreads(&job, zoneBytes)
	if err != nil {
		return Result{}, err
	}
	windows := make([][]inflightOp, len(threads))
	for i := range windows {
		windows[i] = make([]inflightOp, 0, depth+1)
	}
	// Data-less writes share one nil-entry payload container: the backend
	// only ever reads the entries, so every in-flight request may alias it.
	var nilPayloads [][]byte

	lat := stats.NewHistogram()
	var totalOps, totalBytes, ioErrors int64
	var readOnly bool
	end := job.StartAt

	reapOldest := func(ti int) error {
		w := windows[ti]
		op := w[0]
		copy(w, w[1:])
		windows[ti] = w[:len(w)-1]
		comp, ok := dev.Wait(op.tag)
		if !ok {
			return fmt.Errorf("workload %s: completion of tag %d vanished", job.Name, op.tag)
		}
		if comp.Data != nil {
			dev.Recycle(comp.Data)
		}
		if comp.Err != nil {
			if !job.ContinueOnError {
				return fmt.Errorf("workload %s: %v lba %d: %w", job.Name, comp.Op, comp.LBA, comp.Err)
			}
			// The failed operation counts as an error, not as throughput.
			// Read-only degradation stops submission; the windows still
			// drain so every in-flight completion is accounted for.
			ioErrors++
			if errors.Is(comp.Err, fault.ErrReadOnly) {
				readOnly = true
			}
		} else if op.bytes > 0 {
			lat.Record(comp.Latency())
			totalOps++
			totalBytes += op.bytes
		}
		th := threads[ti]
		if comp.Done > th.doneAtSim {
			th.doneAtSim = comp.Done
		}
		if comp.Done > end {
			end = comp.Done
		}
		// The thread's clock only advances when its window stalls it:
		// submission costs PerOpOverhead, reaping costs nothing extra, but
		// the thread cannot run ahead of its oldest completion once the
		// window is full.
		if comp.Done > th.now {
			th.now = comp.Done
		}
		return nil
	}

	for {
		if readOnly {
			// Stop submitting: every remaining write would fail the same
			// way. Threads keep only their drain work.
			for _, th := range threads {
				if th.issued < job.TotalBytesPerJob {
					th.issued = job.TotalBytesPerJob
				}
			}
		}
		// Pick the thread with the earliest clock that still has work:
		// something to submit, or a window to drain.
		ti := -1
		for i, th := range threads {
			if th.issued >= job.TotalBytesPerJob && len(windows[i]) == 0 {
				continue
			}
			if ti < 0 || th.now < threads[ti].now ||
				(th.now == threads[ti].now && i < ti) {
				ti = i
			}
		}
		if ti < 0 {
			break
		}
		th := threads[ti]
		q := ti % queues

		// Drain when done submitting; reap the oldest when the window is
		// full (a wrap reset needs two slots: the reset and its write).
		slotsNeeded := 1
		if th.issued >= job.TotalBytesPerJob {
			if err := reapOldest(ti); err != nil {
				return Result{}, err
			}
			continue
		}
		for len(windows[ti])+slotsNeeded > depth {
			if err := reapOldest(ti); err != nil {
				return Result{}, err
			}
		}

		lba, opBytes, resetZone := th.next(&job, zdev)
		if resetZone >= 0 {
			// The wrap reset rides the same queue just before its write;
			// both are write-class commands of one zone, so the zone write
			// lock dispatches the reset first and the write after it —
			// submission order is completion-safe without waiting here.
			tag, err := dev.Submit(th.now, q, host.Request{Op: host.OpReset, Zone: resetZone})
			if err != nil {
				return Result{}, fmt.Errorf("workload %s: wrap reset zone %d: %w", job.Name, resetZone, err)
			}
			windows[ti] = append(windows[ti], inflightOp{tag: tag})
			for len(windows[ti]) >= depth {
				if err := reapOldest(ti); err != nil {
					return Result{}, err
				}
			}
		}

		req := host.Request{}
		if job.Pattern.IsWrite() {
			var payloads [][]byte
			if job.WithData {
				payloads = make([][]byte, opBytes/units.Sector)
				for s := range payloads {
					payloads[s] = fillPayload(lba + int64(s))
				}
			} else {
				if n := int(opBytes / units.Sector); n > len(nilPayloads) {
					nilPayloads = make([][]byte, n)
				}
				payloads = nilPayloads[:opBytes/units.Sector]
			}
			req = host.Request{Op: host.OpWrite, LBA: lba, Payloads: payloads}
		} else {
			req = host.Request{Op: host.OpRead, LBA: lba, N: opBytes / units.Sector}
		}
		tag, err := dev.Submit(th.now, q, req)
		if err != nil {
			return Result{}, fmt.Errorf("workload %s: submit %v lba %d: %w", job.Name, req.Op, lba, err)
		}
		windows[ti] = append(windows[ti], inflightOp{tag: tag, bytes: opBytes})
		th.issued += opBytes
		th.now = th.now.Add(job.PerOpOverhead)
		if th.now > th.doneAtSim {
			th.doneAtSim = th.now
		}
	}

	if job.FlushAtEnd && job.Pattern.IsWrite() && !readOnly {
		d, err := dev.FlushAll(end)
		if err != nil {
			if !job.ContinueOnError {
				return Result{}, err
			}
			ioErrors++
		}
		if d > end {
			end = d
		}
	}
	elapsed := end.Sub(job.StartAt)
	return Result{
		Job:            job.Name,
		Threads:        job.NumJobs,
		Depth:          depth,
		Bytes:          totalBytes,
		Ops:            totalOps,
		Elapsed:        elapsed,
		IOErrors:       ioErrors,
		ReadOnly:       readOnly,
		BandwidthMiBps: units.BandwidthMiBps(totalBytes, elapsed),
		IOPS:           units.IOPS(totalOps, elapsed),
		Lat:            lat.Summarize(),
		Hist:           lat,
	}, nil
}
