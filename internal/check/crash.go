package check

import (
	"bytes"
	"errors"
	"fmt"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/fault"
	"github.com/conzone/conzone/internal/ftl"
	"github.com/conzone/conzone/internal/nand"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/slc"
	"github.com/conzone/conzone/internal/zns"
)

// Crash-remount differential fuzzing. A seeded op sequence runs once
// uninterrupted to learn its virtual duration, then again on a fresh device
// with a power cut armed at a seeded instant inside that window. When the
// cut fires the run remounts the device (ftl.Recover) and verifies the
// durability contract sector by sector:
//
//   - every sector a successful barrier (zone flush, close, finish) or an
//     acknowledged reset made durable reads back exactly;
//   - every other sector reads back as one of the versions the crash could
//     legally leave: an acknowledged-but-unflushed write, the pre-barrier
//     durable version, zeros for a torn write or torn reset;
//   - the cross-subsystem audit is clean after the remount, and
//     Stats.LostAckSectors stayed zero on the crashed device;
//   - the remounted device keeps working: the rest of the sequence replays
//     on it with full read verification and a final audit.
//
// The oracle is a per-sector set of acceptable versions. It is exact at
// barriers (a single version survives) and a superset in between — a Write
// may drain buffered data early, so any acknowledged version since the last
// barrier is accepted. Sequence numbers grow monotonically, which keeps the
// sets tiny.

// crashRun drives the ConZone personality through one crash-and-remount
// cycle.
type crashRun struct {
	cfg  config.DeviceConfig
	f    *ftl.FTL
	now  sim.Time
	seq  uint32
	zcap int64

	vers []uint32   // last acknowledged version per sector (live-read oracle)
	okv  [][]uint32 // acceptable post-crash versions; nil = {0}
	wp   []int64    // mirrored write pointer, zone-relative
	full []bool

	// State of the op the cut tore, folded into the acceptable sets.
	tornWriteLBA int64
	tornWriteN   int64
	tornWriteVer uint32
	tornReset    int // zone of a torn reset, -1 otherwise
}

func newCrashRun(cfg config.DeviceConfig) (*crashRun, error) {
	f, err := cfg.NewConZone()
	if err != nil {
		return nil, err
	}
	return &crashRun{
		cfg:       cfg,
		f:         f,
		zcap:      f.ZoneCapSectors(),
		vers:      make([]uint32, f.TotalSectors()),
		okv:       make([][]uint32, f.TotalSectors()),
		wp:        make([]int64, f.NumZones()),
		full:      make([]bool, f.NumZones()),
		tornReset: -1,
	}, nil
}

func (r *crashRun) observe(done sim.Time) {
	if done > r.now {
		r.now = done
	}
}

func (r *crashRun) conventional(zone int) bool {
	z, err := r.f.Zones().Zone(zone)
	return err == nil && z.Type == zns.Conventional
}

// ackWrite records an acknowledged write: readable immediately, and one of
// the versions a crash may leave behind.
func (r *crashRun) ackWrite(lba, n int64, ver uint32) {
	for l := lba; l < lba+n; l++ {
		r.vers[l] = ver
		if r.okv[l] == nil {
			r.okv[l] = []uint32{0}
		}
		r.okv[l] = append(r.okv[l], ver)
	}
}

// barrier collapses a zone's acceptable sets to the acknowledged version:
// a successful flush-class command made everything acknowledged durable.
func (r *crashRun) barrier(zone int) {
	start := int64(zone) * r.zcap
	for l := start; l < start+r.zcap; l++ {
		if r.okv[l] != nil {
			r.okv[l] = r.okv[l][len(r.okv[l])-1:]
		}
	}
}

// ackReset zeroes a zone: the erase and its journal record are durable the
// moment the reset is acknowledged.
func (r *crashRun) ackReset(zone int) {
	start := int64(zone) * r.zcap
	for l := start; l < start+r.zcap; l++ {
		r.vers[l] = 0
		r.okv[l] = nil
	}
	r.wp[zone], r.full[zone] = 0, false
}

// step executes one op against the live (pre-crash) device. It returns
// nand.ErrPowerLoss unwrapped when the cut fired.
func (r *crashRun) step(op Op) error {
	nz := r.f.NumZones()
	zone := op.Zone % nz
	start := int64(zone) * r.zcap
	switch op.Kind {
	case OpWrite:
		var lba, n int64
		if r.conventional(zone) {
			off := op.Off % r.zcap
			lba, n = start+off, op.Len
			if n > r.zcap-off {
				n = r.zcap - off
			}
		} else {
			if r.full[zone] || r.wp[zone] == r.zcap {
				return nil
			}
			lba, n = start+r.wp[zone], op.Len
			if n > r.zcap-r.wp[zone] {
				n = r.zcap - r.wp[zone]
			}
		}
		if n <= 0 {
			return nil
		}
		r.seq++
		payloads := make([][]byte, n)
		for i := int64(0); i < n; i++ {
			payloads[i] = payloadFor(lba+i, r.seq)
		}
		done, err := r.f.Write(r.now, lba, payloads)
		if err != nil {
			if errors.Is(err, nand.ErrPowerLoss) {
				// The torn write's landed prefix is acceptable.
				r.tornWriteLBA, r.tornWriteN, r.tornWriteVer = lba, n, r.seq
			}
			return err
		}
		r.observe(done)
		r.ackWrite(lba, n, r.seq)
		if !r.conventional(zone) {
			r.wp[zone] += n
			if r.wp[zone] == r.zcap {
				r.full[zone] = true
			}
		}
		return nil
	case OpRead:
		off := op.Off % r.zcap
		lba, n := start+off, op.Len
		if n > r.zcap-off {
			n = r.zcap - off
		}
		if n <= 0 {
			return nil
		}
		got, done, err := r.f.Read(r.now, lba, n)
		if err != nil {
			return err
		}
		r.observe(done)
		for i := int64(0); i < n; i++ {
			l := lba + i
			if v := r.vers[l]; v == 0 {
				if !allZero(got[i]) {
					return fmt.Errorf("read LPA %d: unwritten sector returned data", l)
				}
			} else if !bytes.Equal(got[i], payloadFor(l, v)) {
				return fmt.Errorf("read LPA %d: payload does not match write #%d", l, v)
			}
		}
		return nil
	case OpFlush:
		done, err := r.f.Flush(r.now, zone)
		if err != nil {
			return err
		}
		r.observe(done)
		r.barrier(zone)
		return nil
	case OpReset:
		if r.conventional(zone) {
			return nil
		}
		done, err := r.f.ResetZone(r.now, zone)
		if err != nil {
			if errors.Is(err, nand.ErrPowerLoss) {
				r.tornReset = zone // each sector may survive or read zero
			}
			return err
		}
		r.observe(done)
		r.ackReset(zone)
		return nil
	case OpFinish:
		if r.conventional(zone) {
			return nil
		}
		done, err := r.f.FinishZone(r.now, zone)
		if err != nil {
			// A torn pad-out leaves zeros in [WP, WP+landed): version 0,
			// which every unwritten sector's acceptable set already holds.
			return err
		}
		r.observe(done)
		r.barrier(zone)
		// The finish padded the zone to capacity on media; the pads read
		// back as zeros (version 0, the default acceptable version).
		r.wp[zone] = r.zcap
		r.full[zone] = true
		return nil
	case OpClose:
		if r.conventional(zone) || r.wp[zone] == 0 || r.full[zone] {
			return nil
		}
		done, err := r.f.CloseZone(r.now, zone)
		if err != nil {
			return err
		}
		r.observe(done)
		r.barrier(zone)
		return nil
	}
	return fmt.Errorf("unknown op kind %d", int(op.Kind))
}

// acceptable returns the versions sector l may legally hold after the crash.
func (r *crashRun) acceptable(l int64) []uint32 {
	set := r.okv[l]
	if set == nil {
		set = []uint32{0}
	}
	if r.tornReset >= 0 {
		start := int64(r.tornReset) * r.zcap
		if l >= start && l < start+r.zcap {
			set = append(append([]uint32(nil), set...), 0)
		}
	}
	if r.tornWriteN > 0 && l >= r.tornWriteLBA && l < r.tornWriteLBA+r.tornWriteN {
		set = append(append([]uint32(nil), set...), r.tornWriteVer)
	}
	return set
}

// remountAndVerify recovers the crashed device, checks every sector against
// its acceptable set, resynchronizes the mirrors to what actually survived,
// and audits the recovered state.
func (r *crashRun) remountAndVerify() error {
	if got := r.f.Stats().LostAckSectors; got != 0 {
		return fmt.Errorf("crashed device lost %d acknowledged sectors before the cut", got)
	}
	var snap *fault.Snapshot
	if inj := r.f.FaultInjector(); inj != nil {
		s := inj.Snapshot()
		snap = &s
	}
	f2, done, err := ftl.Recover(r.f.Array(), r.cfg.FTL, snap)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	r.f = f2
	r.observe(done)
	if err := Audit(f2); err != nil {
		return fmt.Errorf("audit after remount: %w", err)
	}
	if err := f2.CheckInvariants(); err != nil {
		return fmt.Errorf("invariants after remount: %w", err)
	}
	if got := f2.Stats().LostAckSectors; got != 0 {
		return fmt.Errorf("remount reports %d lost acknowledged sectors", got)
	}

	// Full read-back: every sector must hold one of its acceptable
	// versions, and the mirrors adopt whichever version survived.
	const chunk = 64
	for zone := 0; zone < f2.NumZones(); zone++ {
		start := int64(zone) * r.zcap
		for off := int64(0); off < r.zcap; off += chunk {
			n := int64(chunk)
			if n > r.zcap-off {
				n = r.zcap - off
			}
			got, done, err := f2.Read(r.now, start+off, n)
			if err != nil {
				return fmt.Errorf("post-remount read zone %d off %d: %w", zone, off, err)
			}
			r.observe(done)
			for i := int64(0); i < n; i++ {
				l := start + off + i
				matched := false
				for _, v := range r.acceptable(l) {
					if v == 0 {
						if got[i] == nil || allZero(got[i]) {
							r.vers[l] = 0
							matched = true
							break
						}
					} else if got[i] != nil && bytes.Equal(got[i], payloadFor(l, v)) {
						r.vers[l] = v
						matched = true
						break
					}
				}
				if !matched {
					return fmt.Errorf("post-remount LPA %d: survivor matches none of the acceptable versions %v",
						l, r.acceptable(l))
				}
			}
		}
	}

	// Resync zone mirrors from the recovered write pointers.
	for zone := 0; zone < f2.NumZones(); zone++ {
		if r.conventional(zone) {
			continue
		}
		z, err := f2.Zones().Zone(zone)
		if err != nil {
			return err
		}
		r.wp[zone] = z.WP - z.Start
		r.full[zone] = z.State == zns.Full
		// The recovered pointer must cover every durable sector and no
		// sector the read-back found empty: verify against the adopted
		// versions.
		start := int64(zone) * r.zcap
		for off := int64(0); off < r.zcap; off++ {
			if off < r.wp[zone] {
				continue
			}
			if r.vers[start+off] != 0 {
				return fmt.Errorf("zone %d: surviving data at offset %d beyond recovered write pointer %d",
					zone, off, r.wp[zone])
			}
		}
	}
	r.tornWriteN, r.tornReset = 0, -1
	return nil
}

// RunCrashSequence is the crash-fuzz entry point: derive a seeded sequence,
// learn its uninterrupted virtual duration, crash a fresh device at a
// seeded instant inside it, remount, verify the durability contract, and
// replay the remainder of the sequence on the recovered device. withFaults
// additionally arms the NAND fault model, exercising the injector
// stream/cursor carry across the remount. Sequences that exhaust space or
// degrade to read-only end early without error, as in RunSequence. The
// returned flag reports whether the cut actually fired — callers use it to
// guard the corpus against going stale.
func RunCrashSequence(seed uint64, nOps, auditEvery int, withFaults bool) (crashed bool, err error) {
	cfg := FuzzConfig()
	if withFaults {
		cfg = FaultFuzzConfig(seed)
	}
	probe, err := cfg.NewConZone()
	if err != nil {
		return false, err
	}
	ops := GenOps(seed, nOps, probe.NumZones(), probe.ZoneCapSectors())

	// Pass 1: uninterrupted, to learn the sequence's virtual duration.
	dry, err := newCrashRun(cfg)
	if err != nil {
		return false, err
	}
	for i, op := range ops {
		if err := dry.step(op); err != nil {
			if errors.Is(err, slc.ErrNoSpace) || errors.Is(err, fault.ErrReadOnly) {
				break
			}
			return false, fmt.Errorf("seed %#x dry run op %d (%s): %w", seed, i, op, err)
		}
	}
	if dry.now == 0 {
		return false, nil // sequence touched no media; nothing to crash
	}

	// Pass 2: fresh device, cut armed at a seeded instant inside the run.
	cut := sim.Time(1 + sim.NewRand(seed^0xC4A54).Int63n(int64(dry.now)))
	r, err := newCrashRun(cfg)
	if err != nil {
		return false, err
	}
	r.f.ArmPowerCut(cut)
	crashedAt := -1
	for i, op := range ops {
		err := r.step(op)
		if err == nil {
			if auditEvery > 0 && (i+1)%auditEvery == 0 {
				if err := Audit(r.f); err != nil {
					return false, fmt.Errorf("seed %#x cut %d after op %d (%s): %w", seed, cut, i, op, err)
				}
			}
			continue
		}
		if errors.Is(err, nand.ErrPowerLoss) {
			crashedAt = i
			break
		}
		if errors.Is(err, slc.ErrNoSpace) || errors.Is(err, fault.ErrReadOnly) {
			return false, nil // degraded before the cut fired
		}
		return false, fmt.Errorf("seed %#x cut %d op %d (%s): %w", seed, cut, i, op, err)
	}
	if crashedAt < 0 {
		return false, nil // the cut landed after the last media op
	}
	if err := r.remountAndVerify(); err != nil {
		return true, fmt.Errorf("seed %#x cut %d crash at op %d (%s): %w", seed, cut, crashedAt, ops[crashedAt], err)
	}

	// Continuation: the recovered device must serve the rest of the
	// sequence correctly.
	for i := crashedAt + 1; i < len(ops); i++ {
		if err := r.step(ops[i]); err != nil {
			if errors.Is(err, slc.ErrNoSpace) || errors.Is(err, fault.ErrReadOnly) {
				return true, nil
			}
			return true, fmt.Errorf("seed %#x cut %d post-remount op %d (%s): %w", seed, cut, i, ops[i], err)
		}
	}
	if err := Audit(r.f); err != nil {
		return true, fmt.Errorf("seed %#x cut %d final audit: %w", seed, cut, err)
	}
	return true, nil
}
