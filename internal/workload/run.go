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
// submission, in non-decreasing virtual time, so tag order is a pure
// function of the job.
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

// runner is one Run: the device surfaces the job uses, its threads and the
// counters its Result reports. The loop's helpers are methods rather than
// closures, so no operation's state escapes to the heap.
type runner struct {
	job   Job
	depth int
	dev   Device
	adev  Async // nil at depth 1, where every command is a direct call
	zdev  Zoned

	threads []*thread
	// container is the one payload container: devices copy a write's
	// entries out before returning, a read's views are dropped before the
	// next command, and a queued data-less write only reads its nil
	// entries, so every in-flight request may alias it.
	container [][]byte

	lat                  *stats.Histogram
	ops, bytes, ioErrors int64
	readOnly             bool
	end                  sim.Time // the latest completion so far
}

// Run executes the job against the device and returns its result. One
// event loop drives every queue depth: the thread with the earliest clock
// acts next, reaping its oldest completion when its window is full or it
// has nothing left to issue, else issuing its next operation at its clock
// and moving the clock PerOpOverhead on. At depth 1 an operation is a direct
// Device call, accounted as it returns, so the window never holds it; a
// failed call completes at its submission instant, and a SyncWrites flush
// is issued at the write's completion and counts in its latency. Above
// depth 1 operations go through Async.Submit and Async.Wait, and every reap
// is followed by a fresh pick, so no submission is earlier than one already
// made. A wrap reset runs at the thread's clock: at depth 1 its write is
// issued when it completes; above, at the same instant behind it on the
// queue, unless the reset took the window's last slot.
func Run(dev Device, job Job) (Result, error) {
	var r runner
	err := r.init(dev, job)
	if err != nil {
		return Result{}, err
	}
	write := job.Pattern.IsWrite()
	for th := r.pick(); th != nil && err == nil; th = r.pick() {
		if len(th.window) >= r.depth || th.opBytes == 0 && !r.submitting(th) {
			err = r.reap(th)
			continue
		}
		lba, bytes := th.opLBA, th.opBytes
		if bytes == 0 {
			var zone int
			lba, bytes, zone = th.next(&job, r.zdev)
			if zone >= 0 {
				th.opLBA, th.opBytes = lba, bytes
				if err = r.reset(th, zone); err != nil || len(th.window) >= r.depth {
					continue
				}
			}
		}
		at := th.now
		th.opBytes = 0
		th.issued += bytes
		th.now = at.Add(job.PerOpOverhead)
		if r.adev != nil {
			err = r.submit(th, at, lba, bytes)
			continue
		}

		n := bytes / units.Sector
		buf := r.container[:n] // a write's payloads, a read's views
		op, failAt := host.OpRead, at
		var done sim.Time
		if write {
			op = host.OpWrite
			if job.WithData {
				fillPayloads(buf, lba)
			}
			done, err = dev.Write(at, lba, buf)
			if err == nil && job.SyncWrites {
				var flushed sim.Time
				op, failAt = host.OpFlush, done
				flushed, err = r.zdev.Flush(done, int(lba/r.zdev.ZoneCapSectors()))
				done = max(done, flushed)
			}
		} else {
			done, err = dev.ReadInto(at, lba, n, buf)
		}
		if err != nil {
			err = r.failed(th, op, lba, failAt, err)
			continue
		}
		r.complete(bytes, at, done)
		r.advance(th, done)
	}
	if err != nil {
		return Result{}, err
	}
	return r.result()
}

// init validates the job against the device and builds its threads.
func (r *runner) init(dev Device, job Job) error {
	if err := job.Validate(dev); err != nil {
		return err
	}
	*r = runner{
		job:       job,
		depth:     max(job.QueueDepth, 1),
		dev:       dev,
		container: make([][]byte, job.BlockBytes/units.Sector),
		lat:       stats.NewHistogram(),
		end:       job.StartAt,
	}
	r.zdev, _ = dev.(Zoned)
	queues := 1
	if r.depth > 1 {
		adev, ok := dev.(Async)
		if !ok {
			return fmt.Errorf("workload %s: QueueDepth %d needs an async device, %T is synchronous",
				job.Name, job.QueueDepth, dev)
		}
		queues = job.Queues
		if queues == 0 {
			queues = min(job.NumJobs, adev.Queues())
		}
		if queues > adev.Queues() {
			return fmt.Errorf("workload %s: %d queues requested, device has %d",
				job.Name, queues, adev.Queues())
		}
		if perQueue := (job.NumJobs + queues - 1) / queues; perQueue*r.depth > adev.Depth() {
			return fmt.Errorf("workload %s: %d threads x depth %d exceed the device queue depth %d",
				job.Name, perQueue, r.depth, adev.Depth())
		}
		r.adev = adev
	}
	var err error
	r.threads, err = makeThreads(&job, r.zdev, r.depth, queues)
	return err
}

// submitting reports whether th still draws new operations. A read-only
// degradation ends every thread's stream: each remaining write would fail
// the same way, so the windows only drain.
func (r *runner) submitting(th *thread) bool {
	return !r.readOnly && th.issued < r.job.TotalBytesPerJob
}

// pick returns the thread with the earliest clock that still has work — an
// operation to draw or issue, or a window to drain — the lowest index on a
// tie, or nil when the job is done.
func (r *runner) pick() *thread {
	var next *thread
	for _, th := range r.threads {
		if !r.submitting(th) && th.opBytes == 0 && len(th.window) == 0 {
			continue
		}
		if next == nil || th.now < next.now {
			next = th
		}
	}
	return next
}

// reset resets zone for th's wrapped sequential writer.
func (r *runner) reset(th *thread, zone int) error {
	at := th.now
	if r.adev != nil {
		tag, err := r.adev.Submit(at, th.queue, host.Request{Op: host.OpReset, Zone: zone})
		if err != nil {
			return fmt.Errorf("workload %s: wrap reset zone %d: %w", r.job.Name, zone, err)
		}
		th.window = append(th.window, inflightOp{tag: tag})
		return nil
	}
	done, err := r.zdev.ResetZone(at, zone)
	if err != nil {
		return r.failed(th, host.OpReset, int64(zone)*r.zdev.ZoneCapSectors(), at, err)
	}
	r.advance(th, done)
	return nil
}

// submit queues one operation in th's window.
func (r *runner) submit(th *thread, at sim.Time, lba, bytes int64) error {
	n := bytes / units.Sector
	req := host.Request{Op: host.OpRead, LBA: lba, N: n}
	if r.job.Pattern.IsWrite() {
		req = host.Request{Op: host.OpWrite, LBA: lba, Payloads: r.container[:n]}
		if r.job.WithData {
			// A queued write's entries are read at dispatch, after later
			// submissions have filled the container again.
			req.Payloads = make([][]byte, n)
			fillPayloads(req.Payloads, lba)
		}
	}
	tag, err := r.adev.Submit(at, th.queue, req)
	if err != nil {
		return fmt.Errorf("workload %s: submit %v lba %d: %w", r.job.Name, req.Op, lba, err)
	}
	th.window = append(th.window, inflightOp{tag: tag, bytes: bytes})
	return nil
}

// reap waits for the oldest command in th's window and accounts it.
func (r *runner) reap(th *thread) error {
	op := th.window[0]
	th.window = append(th.window[:0], th.window[1:]...)
	comp, ok := r.adev.Wait(op.tag)
	if !ok {
		return fmt.Errorf("workload %s: completion of tag %d vanished", r.job.Name, op.tag)
	}
	if comp.Data != nil {
		r.adev.Recycle(comp.Data)
	}
	if comp.Err != nil {
		return r.failed(th, comp.Op, comp.LBA, comp.Done, comp.Err)
	}
	if op.bytes > 0 {
		r.complete(op.bytes, comp.Submitted, comp.Done)
	}
	r.advance(th, comp.Done)
	return nil
}

// complete counts an operation that finished without error into the
// result's volume and latency.
func (r *runner) complete(bytes int64, submitted, done sim.Time) {
	r.lat.Record(done.Sub(submitted))
	r.ops++
	r.bytes += bytes
}

// advance moves th's clock and the job's end to a completion at done; with
// Run's step, the clock is max(completion, submission + PerOpOverhead).
func (r *runner) advance(th *thread, done sim.Time) {
	th.now = max(th.now, done)
	r.end = max(r.end, done)
}

// failed accounts one command of th that finished with err at done: it
// aborts the run unless the job continues on errors, where it counts in
// IOErrors instead of throughput.
func (r *runner) failed(th *thread, op host.Op, lba int64, done sim.Time, err error) error {
	if !r.job.ContinueOnError {
		return fmt.Errorf("workload %s: %v lba %d: %w", r.job.Name, op, lba, err)
	}
	r.ioErrors++
	r.readOnly = r.readOnly || errors.Is(err, fault.ErrReadOnly)
	r.advance(th, done)
	return nil
}

// result flushes a write job if it asks to and summarises the run; Elapsed
// runs from StartAt to the last completion.
func (r *runner) result() (Result, error) {
	job := &r.job
	if job.FlushAtEnd && job.Pattern.IsWrite() && !r.readOnly {
		d, err := r.dev.FlushAll(r.end)
		if err != nil {
			if !job.ContinueOnError {
				return Result{}, err
			}
			r.ioErrors++
			r.readOnly = errors.Is(err, fault.ErrReadOnly)
		}
		r.end = max(r.end, d)
	}
	elapsed := r.end.Sub(job.StartAt)
	return Result{
		Job:            job.Name,
		Threads:        job.NumJobs,
		Depth:          r.depth,
		Bytes:          r.bytes,
		Ops:            r.ops,
		Elapsed:        elapsed,
		IOErrors:       r.ioErrors,
		ReadOnly:       r.readOnly,
		BandwidthMiBps: units.BandwidthMiBps(r.bytes, elapsed),
		IOPS:           units.IOPS(r.ops, elapsed),
		Lat:            r.lat.Summarize(),
		Hist:           r.lat,
	}, nil
}
