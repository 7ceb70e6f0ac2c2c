package host

import (
	"errors"
	"fmt"

	"github.com/conzone/conzone/internal/fault"
	"github.com/conzone/conzone/internal/nand"
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

var opNames = [...]string{
	OpRead: "read", OpWrite: "write", OpAppend: "zone_append", OpFlush: "flush",
	OpReset: "zone_reset", OpClose: "zone_close", OpFinish: "zone_finish",
}

// String names the op as the NVMe command it models.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
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
	Zone  int   // target zone (-1 for a read or a flush-all)
	LBA   int64 // start sector; for OpAppend the device-assigned LBA
	N     int64 // sectors the command covered

	// Data holds an OpRead's per-sector payloads (nil entries = unwritten):
	// nil for writes, failed reads, reads into Dst and reads of only
	// unwritten sectors (zeros). The slices are copied out of the device at
	// dispatch, so the reaper owns them indefinitely; Recycle them when done
	// to keep the steady-state read path allocation-free.
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

// Status is the NVMe-style completion status code carried alongside the
// backend's error. Async pollers can branch on it without unwrapping error
// chains; the sync wrappers still return the full error for errors.Is.
type Status uint8

// Completion status codes.
const (
	// StatusOK: the command succeeded.
	StatusOK Status = iota
	// StatusInvalid: the command was malformed or illegal in the current
	// zone state (write-pointer mismatch, full zone, bad arguments, ...).
	StatusInvalid
	// StatusWriteFault: a media program or erase failure the device could
	// not recover from reached the host.
	StatusWriteFault
	// StatusMediaError: a read stayed uncorrectable after the ECC
	// read-retry budget.
	StatusMediaError
	// StatusReadOnly: the device has degraded to read-only operation
	// (spare superblocks exhausted); write-class commands are rejected.
	StatusReadOnly
	// StatusInternal: the controller lost track of the command — an
	// emulator invariant failure surfaced as a completion instead of a
	// panic so the invariant auditor can report it.
	StatusInternal
	// StatusPowerLoss: the device lost power before the command could
	// complete. Volatile state is gone; the device needs a remount.
	StatusPowerLoss
)

var statusNames = [...]string{
	StatusOK: "ok", StatusInvalid: "invalid", StatusWriteFault: "write_fault", StatusMediaError: "media_error",
	StatusReadOnly: "read_only", StatusInternal: "internal", StatusPowerLoss: "power_loss",
}

// String names the status.
func (s Status) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// ErrLostCompletion reports that the controller's bookkeeping lost a
// dispatched command's completion — an internal invariant failure. It is
// synthesized into a StatusInternal completion rather than panicking, and
// the host auditor treats a nonzero LostCompletions count as a violation.
var ErrLostCompletion = errors.New("host: completion vanished (internal error)")

// StatusOf classifies a backend error into its completion status.
func StatusOf(err error) Status {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, ErrLostCompletion):
		return StatusInternal
	case errors.Is(err, nand.ErrPowerLoss):
		return StatusPowerLoss
	case errors.Is(err, fault.ErrReadOnly):
		return StatusReadOnly
	case errors.Is(err, nand.ErrUncorrectable):
		return StatusMediaError
	case errors.Is(err, nand.ErrProgramFail), errors.Is(err, nand.ErrEraseFail):
		return StatusWriteFault
	default:
		return StatusInvalid
	}
}

// Backend is the device surface the controller dispatches into. *ftl.FTL
// implements it; the controller owns all serialization, so the backend may
// be strictly single-entrant. Reads go through ReadInto, whose borrowed
// views the read pool copies out before the next backend call. The
// controller never calls Read: only the frozen bench/trace.go does, through
// this interface, and the next benchmark change drops both.
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

// ErrQueueFull is returned by Submit when the target queue already holds
// Depth outstanding (unreaped) commands.
var ErrQueueFull = errors.New("host: submission queue full")

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
