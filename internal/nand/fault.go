package nand

import "errors"

// NAND operation fault sentinels. The array surfaces media failures through
// these so upper layers can distinguish a failed-but-well-formed operation
// (status FAIL from the die) from a programming error in the emulator's own
// callers; everything else the array returns is the latter. Wrap-checks must
// use errors.Is.
var (
	// ErrProgramFail reports that a program operation completed with status
	// FAIL: the target page contents are undefined, the block's write point
	// did not advance, and the FTL must relocate the data and retire the
	// block (grown bad block).
	ErrProgramFail = errors.New("nand: program failed")

	// ErrPowerLoss reports that the device lost power: the operation either
	// straddled the armed cut instant (and left no trace on media) or was
	// issued after the device died. Once raised, every subsequent media
	// operation fails with it until the device is remounted (see power.go).
	ErrPowerLoss = errors.New("power: device lost power")

	// ErrEraseFail reports that an erase completed with status FAIL: the
	// block's contents are unchanged and it must be retired immediately.
	ErrEraseFail = errors.New("nand: erase failed")

	// ErrUncorrectable reports a read whose data remained uncorrectable
	// after every ECC read-retry round.
	ErrUncorrectable = errors.New("nand: uncorrectable read error")
)

// FaultInjector decides, per media operation, whether it fails. The array
// consults it on every program, erase and page read; a nil injector means
// the media never fails (the default, and the zero-overhead steady state).
//
// Implementations must be deterministic functions of their own seeded state
// and the call sequence — the emulator's replay and differential-fuzz
// harnesses depend on it. eraseCount is the target block's current erase
// count, letting implementations couple failure rates to wear.
type FaultInjector interface {
	// ProgramFails reports whether this program operation fails.
	ProgramFails(m Media, chip, block int, eraseCount int64) bool
	// EraseFails reports whether this erase operation fails.
	EraseFails(m Media, chip, block int, eraseCount int64) bool
	// ReadFault returns how many extra retry rounds (each costing a full
	// tR sense) the read needs, and whether the data remains uncorrectable
	// even after them.
	ReadFault(m Media, chip, block int, eraseCount int64) (retries int, uncorrectable bool)
}

// SetFaultInjector attaches a fault injector to the array; nil restores the
// never-failing default.
func (a *Array) SetFaultInjector(fi FaultInjector) { a.faults = fi }
