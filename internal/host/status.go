package host

import (
	"errors"
	"fmt"

	"github.com/conzone/conzone/internal/fault"
	"github.com/conzone/conzone/internal/nand"
)

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

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusInvalid:
		return "invalid"
	case StatusWriteFault:
		return "write_fault"
	case StatusMediaError:
		return "media_error"
	case StatusReadOnly:
		return "read_only"
	case StatusInternal:
		return "internal"
	case StatusPowerLoss:
		return "power_loss"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
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
