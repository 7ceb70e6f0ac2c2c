package check

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/fault"
	"github.com/conzone/conzone/internal/ftl"
	"github.com/conzone/conzone/internal/host"
	"github.com/conzone/conzone/internal/nand"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/slc"
	"github.com/conzone/conzone/internal/units"
	"github.com/conzone/conzone/internal/workload"
)

// This file is the deterministic differential fuzz harness: seeded op
// sequences are replayed against each device personality by one replayer,
// every read is compared with the oracle in crash.go (the last acknowledged
// version of every sector, and the versions a power cut may leave), and the
// personality's audit runs every few operations. A crash run is the same
// replay with a cut instant armed. Failing sequences are shrunk to a minimal
// reproducer before being reported.

// OpKind enumerates the host operations the fuzzer issues.
type OpKind int

const (
	OpWrite OpKind = iota
	OpRead
	OpReset
	OpFlush
	OpFinish
	OpClose
)

func (k OpKind) String() string {
	switch k {
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	case OpReset:
		return "reset"
	case OpFlush:
		return "flush"
	case OpFinish:
		return "finish"
	case OpClose:
		return "close"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Op is one host operation in personality-neutral coordinates: a zone, a
// zone-relative offset and a length in sectors. The replayer translates them
// into the device's own geometry (see locate).
type Op struct {
	Kind OpKind
	Zone int
	Off  int64
	Len  int64
}

func (o Op) String() string {
	switch o.Kind {
	case OpWrite, OpRead:
		return fmt.Sprintf("%s z%d+%d x%d", o.Kind, o.Zone, o.Off, o.Len)
	default:
		return fmt.Sprintf("%s z%d", o.Kind, o.Zone)
	}
}

// FormatOps renders a sequence one op per line, for reproducer reports.
func FormatOps(ops []Op) string {
	var b strings.Builder
	for i, o := range ops {
		fmt.Fprintf(&b, "  %3d: %s\n", i, o)
	}
	return b.String()
}

// Personality selects which device model a sequence is replayed against.
type Personality int

const (
	ConZone Personality = iota
	Legacy
	FEMU
	ConfZNS
	// Host is the ConZone FTL behind host.Controller's synchronous calls:
	// every op takes the queue path (submit, arbiter, zone write lock,
	// reap) at depth 1.
	Host
)

// Personalities lists every device model the harness drives.
var Personalities = []Personality{ConZone, Legacy, FEMU, ConfZNS, Host}

func (p Personality) String() string {
	switch p {
	case ConZone:
		return "conzone"
	case Legacy:
		return "legacy"
	case FEMU:
		return "femu"
	case ConfZNS:
		return "confzns"
	case Host:
		return "host"
	}
	return fmt.Sprintf("Personality(%d)", int(p))
}

// FuzzConfig returns the device configuration the fuzzer runs on: the
// Small() test geometry with an enlarged SLC staging region, so long
// conflict-heavy schedules fill many zones' alignment tails without
// exhausting staging space.
func FuzzConfig() config.DeviceConfig {
	c := config.Small()
	c.Geometry.BlocksPerChip = 32 // 10 normal + 20 SLC + 2 map
	c.Geometry.SLCBlocks = 20
	return c
}

// opLens mixes small buffered writes, program-unit multiples and runs that
// span several program units.
var opLens = []int64{1, 2, 4, 8, 12, 24, 32, 96}

// GenOps derives a reproducible operation sequence from the seed. The zone
// choice is biased toward a small hot set so that zones sharing a write
// buffer collide constantly (premature flushes, the paper's W.1/W.2 path),
// and resets are frequent enough to recycle superblocks and staging space.
func GenOps(seed uint64, n, zones int, zoneCap int64) []Op {
	r := sim.NewRand(seed)
	hot := zones
	if hot > 5 {
		hot = 5
	}
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		zone := int(r.Int63n(int64(zones)))
		if r.Float64() < 0.8 {
			zone = int(r.Int63n(int64(hot)))
		}
		op := Op{Zone: zone, Off: r.Int63n(zoneCap), Len: opLens[r.Int63n(int64(len(opLens)))]}
		switch p := r.Float64(); {
		case p < 0.60:
			op.Kind = OpWrite
		case p < 0.85:
			op.Kind = OpRead
		case p < 0.90:
			op.Kind = OpReset
		case p < 0.94:
			op.Kind = OpFlush
		case p < 0.97:
			op.Kind = OpFinish
		default:
			op.Kind = OpClose
		}
		ops = append(ops, op)
	}
	return ops
}

// payloadFor builds the deterministic sector payload for the ver-th write
// of lpa: a full sector whose first bytes carry an xorshift pattern of
// (lpa, ver), the rest zeros (which survives the FTL's zero-padded
// program-unit merge).
func payloadFor(lpa int64, ver uint32) []byte {
	b := make([]byte, units.Sector)
	x := uint64(lpa)<<20 ^ uint64(ver)<<1 | 1
	for i := 0; i < 32; i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(b[i:], x)
	}
	return b
}

// zoneFinisher is the optional finish/close surface (ConZone and Host).
type zoneFinisher interface {
	FinishZone(at sim.Time, zone int) (sim.Time, error)
	CloseZone(at sim.Time, zone int) (sim.Time, error)
}

// rig is what a personality builds: the device the ops reach, the audit
// that runs at audit points (nil when the model has no auditor; mount makes
// it a no-op), and how many leading zones are conventional (written in
// place, no write pointer).
type rig struct {
	dev   workload.Device
	audit func() error
	conv  int
}

// conzoneRig is the bare ConZone FTL, also what a crash run remounts.
func conzoneRig(f *ftl.FTL, cfg config.DeviceConfig) rig {
	return rig{dev: f, audit: func() error { return Audit(f) }, conv: cfg.FTL.ConventionalZones}
}

// build constructs p's device on cfg. Personality is the only thing that
// selects a device.
func (p Personality) build(cfg config.DeviceConfig) (rig, error) {
	switch p {
	case ConZone, Host:
		f, err := cfg.NewConZone()
		if err != nil || p == ConZone {
			return conzoneRig(f, cfg), err
		}
		h, err := host.New(f, host.Config{})
		g := conzoneRig(f, cfg)
		g.dev, g.audit = h, func() error {
			if err := Audit(f); err != nil {
				return err
			}
			return AuditHost(h)
		}
		return g, err
	case Legacy:
		// The flat device has no alignment tails to stage, so it runs on
		// stock Small() geometry: FuzzConfig's 20 SLC blocks would hide the
		// staging pressure that drives its GC.
		cfg.Geometry = config.Small().Geometry
		d, err := cfg.NewLegacy()
		return rig{dev: d, audit: d.CheckInvariants}, err
	case FEMU:
		d, err := cfg.NewFEMU()
		return rig{dev: d}, err
	case ConfZNS:
		d, err := cfg.NewConfZNS()
		return rig{dev: d}, err
	}
	return rig{}, fmt.Errorf("unknown personality %d", int(p))
}

// replayer drives one device through a sequence while mirroring the zone
// write pointers and keeping the oracle (crash.go).
type replayer struct {
	cfg config.DeviceConfig
	rig
	zd   workload.Zoned // dev's zoned surface; nil on the flat legacy device
	fin  zoneFinisher   // dev's finish/close surface; nil where the model has none
	now  sim.Time
	seq  uint32   // global write sequence, the version stamped per write
	zcap int64    // sectors per zone; the whole device when it is flat
	wp   []int64  // mirror write pointer, zone-relative; at zcap the zone is FULL
	got  [][]byte // the read container, reused by every read
	oracle
}

func newReplayer(p Personality, cfg config.DeviceConfig) (*replayer, error) {
	g, err := p.build(cfg)
	if err != nil {
		return nil, fmt.Errorf("check: build %s device: %w", p, err)
	}
	r := &replayer{cfg: cfg, zcap: g.dev.TotalSectors(), oracle: newOracle(g.dev.TotalSectors())}
	r.mount(g)
	if r.zd != nil {
		r.zcap = r.zd.ZoneCapSectors()
		r.wp = make([]int64, r.zd.NumZones())
	}
	return r, nil
}

// mount points the replayer at a (re)built device.
func (r *replayer) mount(g rig) {
	if g.audit == nil {
		g.audit = func() error { return nil }
	}
	r.rig = g
	r.zd, _ = g.dev.(workload.Zoned)
	r.fin, _ = g.dev.(zoneFinisher)
}

// views returns the read container sized to n entries.
func (r *replayer) views(n int64) [][]byte {
	if int64(cap(r.got)) < n {
		r.got = make([][]byte, n)
	}
	r.got = r.got[:n]
	return r.got
}

func (r *replayer) observe(done sim.Time) {
	if done > r.now {
		r.now = done
	}
}

// locate is the one op→address mapping: the zone the op names (-1 on the
// flat device) and the sector range a read or write of it covers. A write
// to a sequential zone lands at the mirrored write pointer regardless of
// Off, so a FULL zone yields n = 0; reads and conventional-zone writes use
// the op's own offset. The flat device folds zone+offset into the first
// third of its LBA space: multi-sector overwrites of a hot set, which is
// what makes a page-mapping FTL collect garbage.
func (r *replayer) locate(op Op) (zone int, lba, n int64) {
	if r.zd == nil {
		return -1, (int64(op.Zone)*509 + op.Off) % (r.zcap / 3), op.Len
	}
	zone = op.Zone % len(r.wp)
	off := op.Off % r.zcap
	if op.Kind == OpWrite && zone >= r.conv {
		off = r.wp[zone]
	}
	return zone, int64(zone)*r.zcap + off, min(op.Len, r.zcap-off)
}

// zoneSpan is the sector range a zone-wide command covers; zone -1 is the
// whole flat device.
func (r *replayer) zoneSpan(zone int) (lba, n int64) {
	return int64(max(zone, 0)) * r.zcap, r.zcap
}

// step executes one op and updates the mirrors and the oracle. Ops a
// personality does not have (legacy has no zones, the FEMU lineage no
// finish/close) and ops that are not legal right now (a write to a FULL
// zone, a close of an empty one) are skipped, so the same sequence stays
// replayable everywhere. Errors come back unwrapped: nand.ErrPowerLoss
// means the armed cut fired inside this op.
func (r *replayer) step(op Op) error {
	zone, lba, n := r.locate(op)
	sequential := zone >= r.conv
	var done sim.Time
	var err error
	switch op.Kind {
	case OpWrite:
		if n <= 0 {
			return nil
		}
		r.seq++
		payloads := make([][]byte, n)
		for i := range payloads {
			payloads[i] = payloadFor(lba+int64(i), r.seq)
		}
		if done, err = r.dev.Write(r.now, lba, payloads); err != nil {
			r.torn = tornOp{lba, n, r.seq} // a cut write's landed prefix is acceptable
			return err
		}
		r.ackWrite(lba, n, r.seq)
		if sequential {
			r.wp[zone] += n
		}
	case OpRead:
		if n <= 0 {
			return nil
		}
		if done, err = r.dev.ReadInto(r.now, lba, n, r.views(n)); err != nil {
			return err
		}
		for i, p := range r.got {
			if l := lba + int64(i); !holds(l, r.vers[l], p) {
				return fmt.Errorf("read LPA %d: payload does not match write #%d (0 = unwritten)", l, r.vers[l])
			}
		}
	case OpFlush:
		if r.zd == nil {
			done, err = r.dev.FlushAll(r.now)
		} else {
			done, err = r.zd.Flush(r.now, zone)
		}
		if err != nil {
			return err
		}
		r.barrier(r.zoneSpan(zone))
	case OpReset:
		if r.zd == nil || !sequential {
			return nil
		}
		lba, n = r.zoneSpan(zone)
		if done, err = r.zd.ResetZone(r.now, zone); err != nil {
			r.torn = tornOp{lba, n, 0} // each sector of a cut reset may survive or read zero
			return err
		}
		r.ackReset(lba, n)
		r.wp[zone] = 0
	case OpFinish:
		if r.fin == nil || !sequential {
			return nil
		}
		// A cut pad-out leaves zeros beyond the write pointer: version 0,
		// which every unwritten sector's acceptable set already holds.
		if done, err = r.fin.FinishZone(r.now, zone); err != nil {
			return err
		}
		// The pads read back as zeros, the oracle's version 0.
		r.barrier(r.zoneSpan(zone))
		r.wp[zone] = r.zcap
	case OpClose:
		// Closing is only legal from an open state; a zone with data and
		// not FULL is implicitly open (or already closed, which is a
		// no-op), so the guard keeps the op always-valid.
		if r.fin == nil || !sequential || r.wp[zone] == 0 || r.wp[zone] == r.zcap {
			return nil
		}
		if done, err = r.fin.CloseZone(r.now, zone); err != nil {
			return err
		}
		r.barrier(r.zoneSpan(zone))
	default:
		return fmt.Errorf("unknown op kind %d", int(op.Kind))
	}
	r.observe(done)
	return nil
}

// run describes one replay: the device, the ops, how often to audit, and —
// for a crash run — the virtual instant at which power is cut (0 = never).
type run struct {
	p          Personality
	cfg        config.DeviceConfig
	ops        []Op
	auditEvery int
	cut        sim.Time
}

// outcome is what a replay reports beside its error.
type outcome struct {
	executed  int      // ops that ran; on an error, the index of the op that failed
	end       sim.Time // virtual time when the replay stopped
	crashedAt int      // the op the power cut tore, -1 if it never fired
}

// replay drives a fresh device through the ops, verifying reads against the
// oracle and running the personality's audit every auditEvery ops and once
// at the end. When the armed cut fires (nand.ErrPowerLoss) it records the
// torn op, remounts, verifies every sector against its acceptable set
// (crash.go), and carries on with the rest of the sequence on the recovered
// device. A device that genuinely fills up (slc.ErrNoSpace) or degrades to
// read-only after exhausting its spare superblocks (fault.ErrReadOnly) ends
// the replay early without error — space exhaustion or graceful degradation
// under a hostile schedule is an outcome, not a bug. A mid-write error can
// leave the FTL with mapped sectors ahead of the uncommitted write pointer,
// so the early return deliberately skips the final audit.
func (u run) replay() (out outcome, err error) {
	out.crashedAt = -1
	r, err := newReplayer(u.p, u.cfg)
	if err != nil {
		return out, err
	}
	defer func() { out.end = r.now }()
	if u.cut > 0 {
		f, ok := r.dev.(*ftl.FTL)
		if !ok {
			return out, fmt.Errorf("check: %s cannot be crashed: only the bare FTL remounts", u.p)
		}
		f.ArmPowerCut(u.cut)
	}
	for i, op := range u.ops {
		out.executed = i
		err := r.step(op)
		switch {
		case errors.Is(err, nand.ErrPowerLoss):
			out.crashedAt = i
			if err := r.remount(); err != nil {
				return out, fmt.Errorf("%s crash at op %d (%s): %w", u.p, i, op, err)
			}
			continue
		case errors.Is(err, slc.ErrNoSpace), errors.Is(err, fault.ErrReadOnly):
			return out, nil
		case err != nil:
			return out, fmt.Errorf("%s op %d (%s): %w", u.p, i, op, err)
		}
		if u.auditEvery > 0 && (i+1)%u.auditEvery == 0 {
			if err := r.audit(); err != nil {
				return out, fmt.Errorf("%s after op %d (%s): %w", u.p, i, op, err)
			}
		}
	}
	if err := r.audit(); err != nil {
		return out, fmt.Errorf("%s after final op: %w", u.p, err)
	}
	out.executed = len(u.ops)
	return out, nil
}

// shrink reduces a failing run's sequence to a locally minimal reproducer
// by chunked removal (ddmin-style), bounded by a replay budget so shrinking
// a huge sequence stays fast. The returned sequence still fails under the
// same personality, configuration and cut instant.
func (u run) shrink() []Op {
	fails := func(seq []Op) (int, bool) {
		u.ops = seq
		out, err := u.replay()
		return out.executed, err != nil
	}
	ops := u.ops
	if idx, ok := fails(ops); ok && idx+1 < len(ops) {
		ops = ops[:idx+1]
	}
	budget := 250
	for chunk := len(ops) / 2; chunk >= 1; chunk /= 2 {
		for start := 0; start+chunk <= len(ops) && budget > 0; {
			cand := make([]Op, 0, len(ops)-chunk)
			cand = append(cand, ops[:start]...)
			cand = append(cand, ops[start+chunk:]...)
			budget--
			if idx, ok := fails(cand); ok {
				if idx+1 < len(cand) {
					cand = cand[:idx+1]
				}
				ops = cand
			} else {
				start += chunk
			}
		}
		if budget <= 0 {
			break
		}
	}
	return ops
}

// Replay drives a fresh device of personality p through ops (see
// run.replay) and returns how many ops executed and the first divergence.
func Replay(p Personality, cfg config.DeviceConfig, ops []Op, auditEvery int) (executed int, err error) {
	out, err := run{p: p, cfg: cfg, ops: ops, auditEvery: auditEvery}.replay()
	return out.executed, err
}

// Shrink reduces a sequence that fails Replay to a locally minimal
// reproducer (see run.shrink).
func Shrink(p Personality, cfg config.DeviceConfig, ops []Op, auditEvery int) []Op {
	return run{p: p, cfg: cfg, ops: ops, auditEvery: auditEvery}.shrink()
}

// reproducer appends a shrunk sequence to the failure it still reproduces.
func reproducer(err error, min []Op) error {
	return fmt.Errorf("%w\nminimal reproducer (%d ops):\n%s", err, len(min), FormatOps(min))
}

// fuzzOps derives the seeded sequence for cfg's zone geometry.
func fuzzOps(cfg config.DeviceConfig, seed uint64, nOps int) ([]Op, error) {
	probe, err := cfg.NewConZone()
	if err != nil {
		return nil, err
	}
	return GenOps(seed, nOps, probe.NumZones(), probe.ZoneCapSectors()), nil
}

// RunSequence is the fuzz entry point: derive a seeded sequence, replay it
// against every personality, and on any divergence shrink to a minimal
// reproducer and report it.
func RunSequence(seed uint64, nOps, auditEvery int) error {
	cfg := FuzzConfig()
	ops, err := fuzzOps(cfg, seed, nOps)
	if err != nil {
		return err
	}
	for _, p := range Personalities {
		if _, err := Replay(p, cfg, ops, auditEvery); err != nil {
			return reproducer(fmt.Errorf("seed %#x on %s: %w", seed, p, err), Shrink(p, cfg, ops, auditEvery))
		}
	}
	return nil
}

// FaultFuzzConfig returns the fuzz configuration with the NAND fault model
// armed: spare superblocks reserved, program and erase failures on every
// media type, and transient read failures with a retry budget deep enough
// that an uncorrectable read is out of reach (p^(1+rounds) ≈ 1e-18 per
// read). That last property is load-bearing — it keeps the oracle exact, so
// the harness can assert that no acknowledged write is ever lost while
// program failures relocate, erase failures retire blocks, and reads retry.
func FaultFuzzConfig(seed uint64) config.DeviceConfig {
	c := FuzzConfig()
	c.FTL.SpareSuperblocks = 2
	c.FTL.Faults = &fault.Config{
		Seed:            seed ^ 0xFA017,
		SLC:             fault.Probabilities{ProgramFail: 0.002, EraseFail: 0.002, ReadFail: 0.01},
		TLC:             fault.Probabilities{ProgramFail: 0.01, EraseFail: 0.01, ReadFail: 0.01},
		ReadRetryRounds: 8,
		WearRefErases:   64,
	}
	return c
}

// RunSequenceFaults replays a seeded sequence against the ConZone
// personality with faults injected underneath it. The pass criteria are the
// ISSUE's: every read still matches the oracle (no acknowledged write is
// lost to a recovered fault), the cross-subsystem audit — including the
// bad-block and spare-pool invariants — stays clean throughout, and spare
// exhaustion ends the run as a clean read-only degradation, never a panic.
// The other personalities have no fault model, so this entry is ConZone-only.
func RunSequenceFaults(seed uint64, nOps, auditEvery int) error {
	cfg := FaultFuzzConfig(seed)
	ops, err := fuzzOps(cfg, seed, nOps)
	if err != nil {
		return err
	}
	if _, err := Replay(ConZone, cfg, ops, auditEvery); err != nil {
		return reproducer(fmt.Errorf("faulty seed %#x: %w", seed, err), Shrink(ConZone, cfg, ops, auditEvery))
	}
	return nil
}
