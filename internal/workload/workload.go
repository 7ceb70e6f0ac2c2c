// Package workload is the emulator's FIO analogue: it drives a device
// model with multi-threaded micro-benchmark jobs in virtual time and
// collects bandwidth, IOPS and latency distributions. Threads are virtual:
// one deterministic event loop (run.go) lets whichever thread has the
// earliest clock act next, at every queue depth, so results are exactly
// reproducible. Queue depth changes how a command is issued — a direct
// Device call at depth 1, a submission to the device's queues above it —
// never the loop or the operation stream.
package workload

import (
	"fmt"
	"time"

	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/stats"
	"github.com/conzone/conzone/internal/units"
)

// Device is the surface a workload drives. ConZone, Legacy and FEMU
// devices and the host controller all implement it. ReadInto fills dst
// (exactly n entries) with views of the sectors read, nil for an unwritten
// one; the views stay valid until the device's next call.
type Device interface {
	Write(at sim.Time, lba int64, payloads [][]byte) (sim.Time, error)
	ReadInto(at sim.Time, lba, n int64, dst [][]byte) (sim.Time, error)
	FlushAll(at sim.Time) (sim.Time, error)
	TotalSectors() int64
}

// Zoned is the optional zoned-device surface. Flush persists one zone's
// buffered data, as a sync-write job does after every write.
type Zoned interface {
	Device
	ResetZone(at sim.Time, zone int) (sim.Time, error)
	Flush(at sim.Time, zone int) (sim.Time, error)
	NumZones() int
	ZoneCapSectors() int64
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
	// consumer-device behaviour the paper highlights. It needs a Zoned
	// device, and is incompatible with QueueDepth > 1: O_SYNC serializes by
	// definition.
	SyncWrites bool

	// QueueDepth is each thread's outstanding-command window (fio iodepth).
	// 0 and 1 both mean a window of one: each command is a direct Device
	// call, finished before the thread moves on. Values above 1 require a
	// device implementing Async and drive its submission queues. The
	// operation stream of each thread is a pure function of the seed,
	// identical at every depth — only the submission overlap changes.
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

// Validate rejects inconsistent jobs.
func (j *Job) Validate(dev Device) error {
	total := dev.TotalSectors() * units.Sector
	z, zoned := dev.(Zoned)
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
	case j.SyncWrites && !zoned:
		return fmt.Errorf("workload: SyncWrites needs a zoned device, %T is not", dev)
	}
	if j.Pattern == ZoneRandWrite {
		if !zoned {
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
	Depth   int // queue depth the job ran at (1 = direct Device calls)
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

// thread is one virtual thread: its operation stream (position and RNG)
// and its place in the event loop (clock, window, pending operation).
type thread struct {
	now      sim.Time
	issued   int64 // bytes
	seqPos   int64 // next byte offset for sequential patterns
	seqStart int64 // slice start
	seqEnd   int64 // slice end (exclusive)
	wrapped  bool  // sequential position looped back to seqStart
	blocks   int64 // block-size slots in the job's range (random patterns)
	rng      *sim.Rand

	queue  int          // the submission queue the thread uses above depth 1
	window []inflightOp // submitted, unreaped commands, oldest first
	// opLBA and opBytes hold a drawn write not yet issued (opBytes 0: none),
	// left waiting for room by a wrap reset that took the window's last slot.
	opLBA, opBytes int64

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
// the seed: the event loop replays an identical stream at any queue depth.
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
		lba = (job.OffsetBytes + th.rng.Int63n(th.blocks)*job.BlockBytes) / units.Sector
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

// makeThreads builds each thread: its position state and, above depth 1,
// its window on queue i mod queues.
func makeThreads(job *Job, zdev Zoned, depth, queues int) ([]*thread, error) {
	threads := make([]*thread, job.NumJobs)
	for i := range threads {
		th := &thread{now: job.StartAt, blocks: job.RangeBytes / job.BlockBytes, queue: i % queues}
		th.rng = sim.NewRand(job.Seed + uint64(i)*7919 + 1)
		if depth > 1 {
			th.window = make([]inflightOp, 0, depth)
		}
		if len(job.ThreadOffsets) > 0 {
			th.seqStart = job.ThreadOffsets[i]
			th.seqEnd = job.OffsetBytes + job.RangeBytes
		} else {
			slice := job.RangeBytes / int64(job.NumJobs)
			if (job.Pattern == SeqWrite || job.Pattern == ZoneRandWrite) && zdev != nil {
				zoneBytes := zdev.ZoneCapSectors() * units.Sector
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

// fillPayload builds a deterministic sector payload for integrity checks.
func fillPayload(lba int64) []byte {
	p := make([]byte, units.Sector)
	for i := range p {
		p[i] = byte((lba*13 + int64(i)) % 251)
	}
	return p
}

// fillPayloads fills dst with the payloads of the sectors from lba on.
func fillPayloads(dst [][]byte, lba int64) {
	for s := range dst {
		dst[s] = fillPayload(lba + int64(s))
	}
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
			fillPayloads(payloads, pos/units.Sector)
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
