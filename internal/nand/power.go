package nand

import (
	"github.com/conzone/conzone/internal/sim"
)

// The power-cut model. A cut is armed at a virtual-time instant T. Media
// operations compute their timing exactly as usual, then gate on T before
// touching any durable state: the first operation whose completion would
// pass T is torn — it charges its time but stores nothing, advances no
// write point, consumes no fault-injector randomness — and the array is
// dead from then on, failing every further operation with
// ErrPowerLoss. Because the firmware issues media operations
// synchronously in program order, the surviving media state is always a
// program-order prefix of the issued operations, which is what recovery
// (internal/ftl's Recover) relies on.
//
// A torn multi-plane program therefore leaves the whole wordline
// unprogrammed: IsWritten stays false and the block's append point does not
// move, so partially-programmed pages read back as unwritten rather than as
// stale data.

// ArmPowerCut arms a power cut at the virtual-time instant 'at'. Arming is
// idempotent; re-arming moves the cut instant.
func (a *Array) ArmPowerCut(at sim.Time) {
	a.cutArmed = true
	a.cutAt = at
}

// PowerOn clears the power-loss state: the cut is disarmed and a dead array
// accepts operations again. Recovery calls it first, before scanning media,
// so the recovery counter also counts image mounts (OpenImage goes through
// the same path a crashed device does).
func (a *Array) PowerOn() {
	a.cutArmed = false
	a.dead = false
	a.recoveries++
}

// die marks the array dead to an armed power cut, counting the transition
// exactly once per cut.
func (a *Array) die() {
	if !a.dead {
		a.dead = true
		a.powerCuts++
	}
}

// PowerLost reports whether the array has already died.
func (a *Array) PowerLost() bool { return a.dead }

// PowerCuts returns how many armed power cuts have fired over the array's
// lifetime, across remounts.
func (a *Array) PowerCuts() int64 { return a.powerCuts }

// Recoveries returns how many times the array was powered back on for a
// recovery mount (Remount or OpenImage).
func (a *Array) Recoveries() int64 { return a.recoveries }

// PowerLostAt reports whether the device has power at the instant 'at':
// true once a media operation has torn, or once the armed cut instant has
// passed (the array then transitions to dead). The FTL calls it on every
// host-visible entry point so that even operations touching no media — a
// buffer-served read, a flush of an empty buffer — fail after the cut.
func (a *Array) PowerLostAt(at sim.Time) bool {
	if a.dead {
		return true
	}
	if a.cutArmed && at > a.cutAt {
		a.die()
		return true
	}
	return false
}

// gate is the per-operation power check: err is non-nil when the array is
// dead or when an operation completing at 'end' would straddle the armed
// cut (the array then dies). Callers must gate after computing their timing
// but before consuming fault-injector randomness or mutating media state.
func (a *Array) gate(end sim.Time) error {
	if a.dead {
		return ErrPowerLoss
	}
	if a.cutArmed && end > a.cutAt {
		a.die()
		return ErrPowerLoss
	}
	return nil
}

// OOB metadata. Real FTLs stamp each programmed sector's out-of-band area
// with its logical address and a monotonically increasing program sequence
// number; recovery scans them to rebuild the L2P mapping and to order
// multiple physical copies of the same logical sector. The array stores
// them beside the payload; StampOOB assigns sequence numbers itself so
// every stamped sector is globally ordered by program time.

// StampOOB records the logical address of one just-programmed sector and
// assigns it the next program sequence number.
func (a *Array) StampOOB(ppa PPA, lpa int64) {
	a.seq++
	a.stamp(int64(ppa), lpa, a.seq)
}

// stamp stores an OOB stamp on linear sector idx.
func (a *Array) stamp(idx, lpa, seq int64) {
	c := a.touch(idx)
	i := idx & chunkMask
	c.stamped |= 1 << uint(i)
	c.oobLPA[i] = lpa + 1
	c.oobSeq[i] = seq
}

// CopyOOB duplicates src's OOB stamp onto dst, keeping the original
// sequence number — used when the device relocates data without logically
// rewriting it (bad-block relocation), so the copy neither gains nor loses
// priority against other copies of the same LPA. An unstamped src leaves
// dst unstamped.
func (a *Array) CopyOOB(dst, src PPA) {
	if sc := a.chunkOf(int64(src)); sc != nil && sc.stamped>>uint(src&chunkMask)&1 != 0 {
		a.stamp(int64(dst), sc.oobLPA[src&chunkMask]-1, sc.oobSeq[src&chunkMask])
		return
	}
	if c := a.chunkOf(int64(dst)); c != nil {
		i := dst & chunkMask
		c.stamped &^= 1 << uint(i)
		c.oobLPA[i], c.oobSeq[i] = 0, 0
	}
}

// OOB returns the stamped logical address and sequence number of a sector,
// or (-1, 0) when the sector was never stamped since its last erase.
func (a *Array) OOB(ppa PPA) (lpa int64, seq int64) {
	if ppa < 0 || int64(ppa) >= a.nsectors {
		return -1, 0
	}
	c := a.chunkOf(int64(ppa))
	if c == nil {
		return -1, 0
	}
	return c.oobLPA[ppa&chunkMask] - 1, c.oobSeq[ppa&chunkMask]
}

// NextSeq consumes and returns the next program sequence number without
// stamping a sector. Zone resets use it to record, in the metadata journal,
// the point in program order the reset happened — staged copies stamped
// before it are dead, copies stamped after belong to the zone's new life.
func (a *Array) NextSeq() int64 {
	a.seq++
	return a.seq
}

// MetaKind distinguishes durable metadata journal records.
type MetaKind uint8

// Journal record kinds.
const (
	// MetaZoneReset: a zone reset completed (the host was or will be acked).
	MetaZoneReset MetaKind = iota
	// MetaRetireSB: a normal-region superblock was retired to the grown
	// bad-block table.
	MetaRetireSB
	// MetaSLCRetire: an SLC staging superblock was retired.
	MetaSLCRetire
	// MetaZoneFinish: a zone finish completed — every pad program landed
	// and the host was or will be acked. The record closes the torn-finish
	// window: recovery treats a zone with a finish record newer than its
	// last reset as Full even if the pad extent were ever to disagree with
	// the media scan.
	MetaZoneFinish
)

// String names the record kind.
func (k MetaKind) String() string {
	switch k {
	case MetaZoneReset:
		return "zone_reset"
	case MetaRetireSB:
		return "retire_sb"
	case MetaSLCRetire:
		return "slc_retire"
	case MetaZoneFinish:
		return "zone_finish"
	}
	return "meta_unknown"
}

// MetaRecord is one entry of the durable metadata journal: the tiny set of
// management facts recovery cannot re-derive from data-block OOB scans
// alone (resets and grown-bad retirements). Records are appended only after
// the operation they describe completed on media, so the journal never
// describes state the cut tore away.
type MetaRecord struct {
	Kind  MetaKind
	Zone  int   // MetaZoneReset/MetaZoneFinish: the zone
	SB    int   // MetaRetireSB/MetaSLCRetire: the superblock
	Chip  int   // MetaRetireSB: failing chip of the bad-block record
	Block int   // MetaRetireSB: failing absolute block of the record
	Op    int   // MetaRetireSB: fault.Op of the failure, stored as an int
	Seq   int64 // MetaZoneReset/MetaZoneFinish: program-order position
}

// MetaAppend appends one journal record. Like the L2P map region (§III-E),
// the journal's media layout is deferred: its content is durable by
// construction and its write time is not charged.
func (a *Array) MetaAppend(rec MetaRecord) {
	a.journal = append(a.journal, rec)
}

// MetaJournal returns the journal records in append order. The returned
// slice is a borrow; callers must not modify it.
func (a *Array) MetaJournal() []MetaRecord { return a.journal }
