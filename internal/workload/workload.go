// Package workload is the emulator's FIO analogue: it drives a device
// model with multi-threaded micro-benchmark jobs in virtual time and
// collects bandwidth, IOPS and latency distributions. Threads are virtual:
// a deterministic event loop issues the operation of whichever thread has
// the earliest clock, so results are exactly reproducible.
package workload

import (
	"errors"
	"fmt"
	"time"

	"github.com/conzone/conzone/internal/fault"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/stats"
	"github.com/conzone/conzone/internal/units"
)

// Device is the surface a workload drives. ConZone, Legacy and FEMU
// devices all implement it.
type Device interface {
	Write(at sim.Time, lba int64, payloads [][]byte) (sim.Time, error)
	Read(at sim.Time, lba, n int64) ([][]byte, sim.Time, error)
	FlushAll(at sim.Time) (sim.Time, error)
	TotalSectors() int64
}

// ReaderInto is the optional allocation-free read surface: the device fills
// dst (exactly n entries) with the borrowed views Read would return. The
// synchronous driver reads through it where a device offers it.
type ReaderInto interface {
	ReadInto(at sim.Time, lba, n int64, dst [][]byte) (sim.Time, error)
}

// Zoned is the optional zoned-device surface.
type Zoned interface {
	Device
	ResetZone(at sim.Time, zone int) (sim.Time, error)
	NumZones() int
	ZoneCapSectors() int64
}

// ZoneFlusher lets sync-write jobs flush a single zone.
type ZoneFlusher interface {
	Flush(at sim.Time, zone int) (sim.Time, error)
}

// Pattern is the access pattern of a job.
type Pattern int

// Supported patterns, mirroring fio's rw= values. ZoneRandWrite is the
// zoned analogue of randwrite: each operation picks a random zone of the
// thread's slice and appends at that zone's write pointer (resetting a full
// zone first), the way fio's zonemode=zbd randomizes writes on a device
// that only accepts sequential-in-zone writes.
const (
	SeqWrite Pattern = iota
	SeqRead
	RandRead
	RandWrite
	ZoneRandWrite
)

// String names the pattern as fio would.
func (p Pattern) String() string {
	switch p {
	case SeqWrite:
		return "write"
	case SeqRead:
		return "read"
	case RandRead:
		return "randread"
	case RandWrite:
		return "randwrite"
	case ZoneRandWrite:
		return "zonerandwrite"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// IsWrite reports whether the pattern issues writes.
func (p Pattern) IsWrite() bool {
	return p == SeqWrite || p == RandWrite || p == ZoneRandWrite
}

// Job describes one micro-benchmark, fio-style.
type Job struct {
	Name       string
	Pattern    Pattern
	BlockBytes int64 // bs
	NumJobs    int   // virtual threads

	// Target region [OffsetBytes, OffsetBytes+RangeBytes). Sequential jobs
	// split the region between threads (fio offset_increment) unless
	// ThreadOffsets pins each thread's start explicitly.
	OffsetBytes   int64
	RangeBytes    int64
	ThreadOffsets []int64

	TotalBytesPerJob int64 // I/O volume per thread

	// PerOpOverhead models the host-side cost of issuing one I/O
	// (syscall + memcpy). It paces virtual threads so that concurrent
	// writers interleave as real FIO threads do.
	PerOpOverhead time.Duration

	// SyncWrites flushes the written zone after every write (O_SYNC), the
	// consumer-device behaviour the paper highlights. Incompatible with
	// QueueDepth > 1: O_SYNC serializes by definition.
	SyncWrites bool

	// QueueDepth is each thread's outstanding-command window (fio iodepth).
	// 0 and 1 both mean synchronous issue; values above 1 require a device
	// implementing Async and drive its submission queues. The operation
	// stream of each thread is a pure function of the seed, identical at
	// every depth — only the submission overlap changes.
	QueueDepth int

	// Queues is how many host submission queues the threads spread over
	// (thread i submits on queue i mod Queues). 0 means one queue per
	// thread, capped at the device's queue count. Only meaningful with
	// QueueDepth > 1.
	Queues int

	// ContinueOnError keeps the job running when an operation completes
	// with an I/O error (fault-injection benchmarks): the failed operation
	// counts in Result.IOErrors, is excluded from throughput and latency,
	// and the thread moves on. A read-only degradation still ends the job
	// early — every remaining write would fail the same way — but returns
	// the partial result instead of an error. Without this flag the first
	// error aborts the run.
	ContinueOnError bool

	WithData   bool // carry real payloads
	FlushAtEnd bool
	Seed       uint64
	StartAt    sim.Time
}

// depth normalises QueueDepth: 0 and 1 are both the synchronous case.
func (j *Job) depth() int {
	if j.QueueDepth <= 1 {
		return 1
	}
	return j.QueueDepth
}

// Validate rejects inconsistent jobs.
func (j *Job) Validate(dev Device) error {
	total := dev.TotalSectors() * units.Sector
	switch {
	case j.BlockBytes <= 0 || j.BlockBytes%units.Sector != 0:
		return fmt.Errorf("workload: block size %d must be a positive multiple of %d", j.BlockBytes, units.Sector)
	case j.NumJobs <= 0:
		return fmt.Errorf("workload: NumJobs must be positive, got %d", j.NumJobs)
	case j.OffsetBytes < 0 || j.OffsetBytes%units.Sector != 0:
		return fmt.Errorf("workload: bad offset %d", j.OffsetBytes)
	case j.RangeBytes <= 0 || j.RangeBytes%units.Sector != 0:
		return fmt.Errorf("workload: bad range %d", j.RangeBytes)
	case j.OffsetBytes+j.RangeBytes > total:
		return fmt.Errorf("workload: region [%d,%d) exceeds device capacity %d",
			j.OffsetBytes, j.OffsetBytes+j.RangeBytes, total)
	case j.TotalBytesPerJob <= 0 || j.TotalBytesPerJob%j.BlockBytes != 0:
		return fmt.Errorf("workload: per-thread volume %d must be a positive multiple of bs %d",
			j.TotalBytesPerJob, j.BlockBytes)
	case j.RangeBytes < j.BlockBytes:
		return fmt.Errorf("workload: range %d below block size %d", j.RangeBytes, j.BlockBytes)
	case len(j.ThreadOffsets) > 0 && len(j.ThreadOffsets) != j.NumJobs:
		return fmt.Errorf("workload: %d thread offsets for %d jobs", len(j.ThreadOffsets), j.NumJobs)
	case j.PerOpOverhead < 0:
		return fmt.Errorf("workload: negative per-op overhead")
	case j.QueueDepth < 0:
		return fmt.Errorf("workload: negative queue depth %d", j.QueueDepth)
	case j.Queues < 0:
		return fmt.Errorf("workload: negative queue count %d", j.Queues)
	case j.QueueDepth > 1 && j.SyncWrites:
		return fmt.Errorf("workload: SyncWrites (O_SYNC) cannot run at queue depth %d", j.QueueDepth)
	}
	if j.Pattern == ZoneRandWrite {
		z, ok := dev.(Zoned)
		if !ok {
			return fmt.Errorf("workload: zonerandwrite needs a zoned device, %T is not", dev)
		}
		if len(j.ThreadOffsets) > 0 {
			return fmt.Errorf("workload: zonerandwrite does not support ThreadOffsets (zone ownership would overlap)")
		}
		if zb := z.ZoneCapSectors() * units.Sector; j.OffsetBytes%zb != 0 {
			return fmt.Errorf("workload: zonerandwrite offset %d not aligned to zone bytes %d", j.OffsetBytes, zb)
		}
	}
	return nil
}

// Result summarises a finished job.
type Result struct {
	Job     string
	Threads int
	Depth   int // queue depth the job ran at (1 = synchronous)
	Bytes   int64
	Ops     int64
	Elapsed time.Duration // virtual time from StartAt to the last completion

	// IOErrors counts operations that completed with an error under
	// Job.ContinueOnError; they are excluded from Bytes/Ops/Lat. ReadOnly
	// reports that the job ended early because the device degraded to
	// read-only.
	IOErrors int64
	ReadOnly bool

	BandwidthMiBps float64
	IOPS           float64
	Lat            stats.Summary

	// Hist is the full latency histogram behind Lat. Population harnesses
	// (internal/fleet) merge per-device histograms before summarizing, so
	// cross-device percentiles are exact rather than a bound over per-device
	// summaries. Excluded from JSON renderings of the result.
	Hist *stats.Histogram `json:"-"`
}

// KIOPS returns IOPS in thousands, as the paper's Figs. 7-8 report.
func (r Result) KIOPS() float64 { return r.IOPS / 1000 }

// String renders the result fio-style.
func (r Result) String() string {
	s := fmt.Sprintf("%s: jobs=%d bw=%.1fMiB/s iops=%.0f elapsed=%v lat{%v}",
		r.Job, r.Threads, r.BandwidthMiBps, r.IOPS, r.Elapsed.Round(time.Microsecond), r.Lat)
	if r.IOErrors > 0 {
		s += fmt.Sprintf(" ioerr=%d", r.IOErrors)
	}
	if r.ReadOnly {
		s += " (device read-only)"
	}
	return s
}

type thread struct {
	now       sim.Time
	issued    int64 // bytes
	seqPos    int64 // next byte offset for sequential patterns
	seqStart  int64 // slice start
	seqEnd    int64 // slice end (exclusive)
	wrapped   bool  // sequential position looped back to seqStart
	rng       *sim.Rand
	doneAtSim sim.Time

	// wps tracks per-zone write positions (byte offset within the zone)
	// for ZoneRandWrite, indexed by zone relative to the thread's slice.
	// Each thread owns a disjoint zone range, so positions never race.
	wps []int64
}

// next generates the thread's next operation: its start LBA, its byte
// length, and the zone that must be reset before it runs (-1 if none — a
// wrapped sequential writer re-entering a filled zone resets it first, as
// fio's zonemode=zbd does). It mutates only the thread's position and RNG
// state, never its clock, so the operation stream is a pure function of
// the seed: the synchronous and queued drivers replay identical streams at
// any queue depth.
func (th *thread) next(job *Job, zdev Zoned) (lba, opBytes int64, resetZone int) {
	resetZone = -1
	opBytes = job.BlockBytes
	switch job.Pattern {
	case SeqWrite, SeqRead:
		if th.seqPos+job.BlockBytes > th.seqEnd {
			th.seqPos = th.seqStart // wrap, as fio loops
			th.wrapped = true
		}
		lba = th.seqPos / units.Sector
		// Clamp at zone boundaries, as fio's zonemode=zbd does: a ZNS
		// operation must not cross into the next zone.
		if zdev != nil {
			zb := zdev.ZoneCapSectors() * units.Sector
			pos := th.seqPos
			if boundary := pos - pos%zb + zb; pos+opBytes > boundary {
				opBytes = boundary - pos
			}
			if job.Pattern == SeqWrite && th.wrapped && pos%zb == 0 {
				resetZone = int(pos / zb)
			}
		}
		th.seqPos += opBytes
	case RandRead, RandWrite:
		blocks := job.RangeBytes / job.BlockBytes
		lba = (job.OffsetBytes + th.rng.Int63n(blocks)*job.BlockBytes) / units.Sector
	case ZoneRandWrite:
		// Zoned random write: a random zone of the thread's slice, at that
		// zone's tracked write position; a full zone is reset first and
		// rewritten from its start. Validate pinned zdev != nil and the
		// slice to whole zones.
		zb := zdev.ZoneCapSectors() * units.Sector
		zones := (th.seqEnd - th.seqStart) / zb
		if th.wps == nil {
			th.wps = make([]int64, zones)
		}
		zi := th.rng.Int63n(zones)
		if th.wps[zi] >= zb {
			th.wps[zi] = 0
			resetZone = int((th.seqStart + zi*zb) / zb)
		}
		pos := th.seqStart + zi*zb + th.wps[zi]
		if remain := zb - th.wps[zi]; opBytes > remain {
			opBytes = remain
		}
		lba = pos / units.Sector
		th.wps[zi] += opBytes
	}
	return lba, opBytes, resetZone
}

// makeThreads builds the per-thread position state shared by both drivers.
func makeThreads(job *Job, zoneBytes int64) ([]*thread, error) {
	threads := make([]*thread, job.NumJobs)
	for i := range threads {
		th := &thread{now: job.StartAt, rng: sim.NewRand(job.Seed + uint64(i)*7919 + 1)}
		if len(job.ThreadOffsets) > 0 {
			th.seqStart = job.ThreadOffsets[i]
			th.seqEnd = job.OffsetBytes + job.RangeBytes
		} else {
			slice := job.RangeBytes / int64(job.NumJobs)
			if (job.Pattern == SeqWrite || job.Pattern == ZoneRandWrite) && zoneBytes > 0 {
				// Zoned writers must start at a zone's write pointer, so
				// thread slices are zone-aligned (as fio's zonemode=zbd job
				// splitting requires); boundary clamping keeps every write
				// inside its zone, and zonerandwrite threads own disjoint
				// whole zones.
				slice = units.AlignDown(slice, zoneBytes)
				if job.Pattern == ZoneRandWrite && slice < zoneBytes {
					return nil, fmt.Errorf("workload: zonerandwrite needs at least one zone per thread")
				}
			} else {
				slice = units.AlignDown(slice, job.BlockBytes)
			}
			if slice < job.BlockBytes {
				return nil, fmt.Errorf("workload: range too small to split across %d jobs", job.NumJobs)
			}
			th.seqStart = job.OffsetBytes + int64(i)*slice
			th.seqEnd = th.seqStart + slice
		}
		if th.seqStart%units.Sector != 0 {
			return nil, fmt.Errorf("workload: thread %d offset %d unaligned", i, th.seqStart)
		}
		th.seqPos = th.seqStart
		threads[i] = th
	}
	return threads, nil
}

// Run executes the job against the device and returns its result. Jobs
// with QueueDepth > 1 require a device implementing Async and run through
// the queued driver in runAsync; everything else uses the synchronous
// driver below (itself the queue-depth-1 case).
func Run(dev Device, job Job) (Result, error) {
	if err := job.Validate(dev); err != nil {
		return Result{}, err
	}
	if job.depth() > 1 {
		adev, ok := dev.(Async)
		if !ok {
			return Result{}, fmt.Errorf("workload %s: QueueDepth %d needs an async device, %T is synchronous",
				job.Name, job.QueueDepth, dev)
		}
		return runAsync(adev, job)
	}
	var zoneBytes int64
	if z, ok := dev.(Zoned); ok {
		zoneBytes = z.ZoneCapSectors() * units.Sector
	}
	threads, err := makeThreads(&job, zoneBytes)
	if err != nil {
		return Result{}, err
	}

	lat := stats.NewHistogram()
	var totalOps, totalBytes, ioErrors int64
	var readOnly bool
	var zdev Zoned
	if z, ok := dev.(Zoned); ok {
		zdev = z
	}
	zf, _ := dev.(ZoneFlusher)
	ri, _ := dev.(ReaderInto)
	// One payload container serves every operation of the job: devices copy
	// the entries of a write out before returning, and a read's views are
	// dropped before the next operation.
	container := make([][]byte, job.BlockBytes/units.Sector)

	// failed decides what an operation error means for the job: abort
	// (ContinueOnError unset), stop early (read-only degradation — every
	// remaining write would fail identically), or count it and move on.
	failed := func(err error) (stop bool) {
		ioErrors++
		if errors.Is(err, fault.ErrReadOnly) {
			readOnly = true
			return true
		}
		return false
	}

	for !readOnly {
		// Pick the unfinished thread with the earliest clock.
		ti := -1
		for i, th := range threads {
			if th.issued >= job.TotalBytesPerJob {
				continue
			}
			if ti < 0 || th.now < threads[ti].now {
				ti = i
			}
		}
		if ti < 0 {
			break
		}
		th := threads[ti]
		submit := th.now

		// The operation is charged to the thread whether it succeeds or is
		// counted as an error: position, volume and clock always advance.
		lba, opBytes, resetZone := th.next(&job, zdev)
		finish := func(complete sim.Time, failedOp bool) {
			next := complete
			if h := submit.Add(job.PerOpOverhead); h > next {
				next = h
			}
			th.now = next
			th.issued += opBytes
			th.doneAtSim = next
			if !failedOp {
				lat.Record(complete.Sub(submit))
				totalOps++
				totalBytes += opBytes
			}
		}
		if resetZone >= 0 {
			d, err := zdev.ResetZone(submit, resetZone)
			if err != nil {
				if !job.ContinueOnError {
					return Result{}, fmt.Errorf("workload %s: wrap reset zone %d: %w", job.Name, resetZone, err)
				}
				failed(err)
				finish(submit, true)
				continue
			}
			if d > submit {
				submit = d
			}
			th.now = submit
		}

		var complete sim.Time
		var err error
		if job.Pattern.IsWrite() {
			payloads := container[:opBytes/units.Sector]
			if job.WithData {
				for s := range payloads {
					payloads[s] = fillPayload(lba + int64(s))
				}
			}
			complete, err = dev.Write(submit, lba, payloads)
			if err != nil {
				if !job.ContinueOnError {
					return Result{}, fmt.Errorf("workload %s: write lba %d: %w", job.Name, lba, err)
				}
				failed(err)
				finish(submit, true)
				continue
			}
			if job.SyncWrites && zf != nil && zdev != nil {
				zone := int(lba / zdev.ZoneCapSectors())
				complete2, err := zf.Flush(complete, zone)
				if err != nil {
					if !job.ContinueOnError {
						return Result{}, fmt.Errorf("workload %s: sync flush zone %d: %w", job.Name, zone, err)
					}
					failed(err)
					finish(complete, true)
					continue
				}
				if complete2 > complete {
					complete = complete2
				}
			}
		} else {
			n := opBytes / units.Sector
			if ri != nil {
				complete, err = ri.ReadInto(submit, lba, n, container[:n])
			} else {
				_, complete, err = dev.Read(submit, lba, n)
			}
			if err != nil {
				if !job.ContinueOnError {
					return Result{}, fmt.Errorf("workload %s: read lba %d: %w", job.Name, lba, err)
				}
				failed(err)
				finish(submit, true)
				continue
			}
		}
		finish(complete, false)
	}

	end := job.StartAt
	for _, th := range threads {
		if th.doneAtSim > end {
			end = th.doneAtSim
		}
	}
	if job.FlushAtEnd && job.Pattern.IsWrite() && !readOnly {
		d, err := dev.FlushAll(end)
		if err != nil {
			if !job.ContinueOnError {
				return Result{}, err
			}
			failed(err)
		}
		if d > end {
			end = d
		}
	}
	elapsed := end.Sub(job.StartAt)
	return Result{
		Job:            job.Name,
		Threads:        job.NumJobs,
		Depth:          1,
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

// fillPayload builds a deterministic sector payload for integrity checks.
func fillPayload(lba int64) []byte {
	p := make([]byte, units.Sector)
	for i := range p {
		p[i] = byte((lba*13 + int64(i)) % 251)
	}
	return p
}

// Prefill writes the byte region sequentially in large blocks so read
// benchmarks have mapped data, then flushes. It returns the virtual time
// at which the device is quiescent.
func Prefill(dev Device, at sim.Time, offsetBytes, rangeBytes int64, withData bool) (sim.Time, error) {
	const block = 384 * units.KiB
	if offsetBytes%units.Sector != 0 || rangeBytes <= 0 || rangeBytes%units.Sector != 0 {
		return at, fmt.Errorf("workload: bad prefill region [%d,+%d)", offsetBytes, rangeBytes)
	}
	var zoneBytes int64
	if z, ok := dev.(Zoned); ok {
		zoneBytes = z.ZoneCapSectors() * units.Sector
	}
	end := offsetBytes + rangeBytes
	// Devices copy a write's entries out before returning, so one container
	// serves every block.
	container := make([][]byte, block/units.Sector)
	for pos := offsetBytes; pos < end; {
		n := int64(block)
		if pos+n > end {
			n = end - pos
		}
		// Never cross a zone boundary: ZNS writes must stay in one zone.
		if zoneBytes > 0 {
			if boundary := pos - pos%zoneBytes + zoneBytes; pos+n > boundary {
				n = boundary - pos
			}
		}
		payloads := container[:n/units.Sector]
		if withData {
			for s := range payloads {
				payloads[s] = fillPayload(pos/units.Sector + int64(s))
			}
		}
		d, err := dev.Write(at, pos/units.Sector, payloads)
		if err != nil {
			return at, fmt.Errorf("workload: prefill at %d: %w", pos, err)
		}
		at = d
		pos += n
	}
	return dev.FlushAll(at)
}

// ResetAllZones resets every zone of a zoned device, returning when the
// last reset completes.
func ResetAllZones(dev Zoned, at sim.Time) (sim.Time, error) {
	done := at
	for z := 0; z < dev.NumZones(); z++ {
		d, err := dev.ResetZone(at, z)
		if err != nil {
			return at, err
		}
		if d > done {
			done = d
		}
	}
	return done, nil
}
