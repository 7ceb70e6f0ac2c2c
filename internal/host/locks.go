package host

import "github.com/conzone/conzone/internal/sim"

// lockTarget is what a command's zone write lock covers, decided once at
// submit by zoneLocks.target: lockNone, lockAll, or the one zone it holds.
type lockTarget int

const (
	lockNone lockTarget = -1 // a read: locks nothing
	lockAll  lockTarget = -2 // a flush-all: a full write barrier
)

// zone is the target as a Completion and a PendingInfo report it: the
// locked zone, or -1 for a command that locks no zone or every zone.
func (t lockTarget) zone() int {
	if t < 0 {
		return -1
	}
	return int(t)
}

// zoneLocks is the zone write-lock table, mq-deadline's zoned write locking:
// at most one write-class command in flight per zone, so the write pointer
// is well defined at every dispatch while reads overlap freely.
type zoneLocks struct {
	free []sim.Time // per-zone horizon: when the zone's lock frees
}

// target applies the lock-target rule (see the package comment), the one
// place it is decided. validate has already bounded every zone it returns.
func (l *zoneLocks) target(req *Request, zoneCap int64) lockTarget {
	switch {
	case req.Op == OpRead:
		return lockNone
	case req.Op == OpWrite:
		return lockTarget(req.LBA / zoneCap)
	case req.Op == OpFlush && req.Zone < 0:
		return lockAll
	}
	return lockTarget(req.Zone)
}

// ready returns when a command submitted at `at` may take t's locks.
func (l *zoneLocks) ready(t lockTarget, at sim.Time) sim.Time {
	if t >= 0 {
		return max(at, l.free[t])
	}
	if t == lockAll {
		for _, f := range l.free {
			at = max(at, f)
		}
	}
	return at
}

// release holds t's locks until done, the holder's completion: the next
// write-class command of a locked zone may dispatch then, and no earlier.
func (l *zoneLocks) release(t lockTarget, done sim.Time) {
	if t >= 0 {
		l.free[t] = max(l.free[t], done)
		return
	}
	if t == lockAll {
		for z, f := range l.free {
			l.free[z] = max(f, done)
		}
	}
}
