package check

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/fault"
	"github.com/conzone/conzone/internal/ftl"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/slc"
	"github.com/conzone/conzone/internal/units"
	"github.com/conzone/conzone/internal/zns"
)

// This file is the deterministic differential fuzz harness: seeded op
// sequences are replayed against each device personality, every read is
// compared with a flat in-memory oracle (unwritten sectors read back as
// zeros), and on the ConZone personality the cross-subsystem audit runs
// every few operations. Failing sequences are shrunk to a minimal
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
// zone-relative offset and a length in sectors. Each replayer translates
// them into its device's own geometry (sequential-zone writes land at the
// zone's write pointer regardless of Off; the zoneless legacy device
// flattens zone+offset into an LBA).
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
)

// Personalities lists every device model the harness drives.
var Personalities = []Personality{ConZone, Legacy, FEMU, ConfZNS}

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

// device is the op surface every personality shares.
type device interface {
	Write(at sim.Time, lba int64, payloads [][]byte) (sim.Time, error)
	Read(at sim.Time, lba, n int64) ([][]byte, sim.Time, error)
	FlushAll(at sim.Time) (sim.Time, error)
	TotalSectors() int64
}

// zonedDevice is the zoned surface (ConZone, FEMU, ConfZNS).
type zonedDevice interface {
	device
	NumZones() int
	ZoneCapSectors() int64
	ResetZone(at sim.Time, zone int) (sim.Time, error)
	Flush(at sim.Time, zone int) (sim.Time, error)
}

// replayer drives one device through a sequence while mirroring zone state
// (write pointers, fullness) and the flat data oracle (per-sector version
// counters).
type replayer struct {
	p    Personality
	dev  device
	zd   zonedDevice // nil for the legacy personality
	f    *ftl.FTL    // non-nil only for ConZone (audit + finish/close)
	now  sim.Time
	vers []uint32 // oracle: 0 = never written (reads back as zeros)
	seq  uint32   // global write sequence, the version stamped per write
	wp   []int64  // mirror write pointer, zone-relative
	full []bool   // mirror FULL state (finish or wp at capacity)
}

func newReplayer(p Personality, cfg config.DeviceConfig) (*replayer, error) {
	r := &replayer{p: p}
	var err error
	switch p {
	case ConZone:
		var f *ftl.FTL
		if f, err = cfg.NewConZone(); err == nil {
			r.dev, r.zd, r.f = f, f, f
		}
	case Legacy:
		var d device
		if d, err = cfg.NewLegacy(); err == nil {
			r.dev = d
		}
	case FEMU, ConfZNS:
		build := cfg.NewFEMU
		if p == ConfZNS {
			build = cfg.NewConfZNS
		}
		fd, e := build()
		err = e
		if err == nil {
			r.dev, r.zd = fd, fd
		}
	default:
		err = fmt.Errorf("check: unknown personality %d", int(p))
	}
	if err != nil {
		return nil, fmt.Errorf("check: build %s device: %w", p, err)
	}
	r.vers = make([]uint32, r.dev.TotalSectors())
	if r.zd != nil {
		r.wp = make([]int64, r.zd.NumZones())
		r.full = make([]bool, r.zd.NumZones())
	}
	return r, nil
}

// conventional reports whether zone is a conventional zone (in-place
// updates, no write pointer). Only the ConZone personality configures any.
func (r *replayer) conventional(zone int) bool {
	if r.f == nil {
		return false
	}
	z, err := r.f.Zones().Zone(zone)
	return err == nil && z.Type == zns.Conventional
}

func (r *replayer) observe(done sim.Time) {
	if done > r.now {
		r.now = done
	}
}

// write issues a host write and updates the oracle. Sequential zones write
// at the mirrored write pointer; conventional zones (and the flat legacy
// device) write at the op's own offset.
func (r *replayer) write(op Op) error {
	var lba, n int64
	if r.zd == nil {
		total := r.dev.TotalSectors()
		lba = (int64(op.Zone)*509 + op.Off) % total
		n = op.Len
		if n > total-lba {
			n = total - lba
		}
	} else {
		zone := op.Zone % r.zd.NumZones()
		zcap := r.zd.ZoneCapSectors()
		start := int64(zone) * zcap
		if r.conventional(zone) {
			off := op.Off % zcap
			lba, n = start+off, op.Len
			if n > zcap-off {
				n = zcap - off
			}
		} else {
			if r.full[zone] || r.wp[zone] == zcap {
				return nil // nothing to write without a reset
			}
			lba, n = start+r.wp[zone], op.Len
			if n > zcap-r.wp[zone] {
				n = zcap - r.wp[zone]
			}
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
	done, err := r.dev.Write(r.now, lba, payloads)
	if err != nil {
		return err
	}
	r.observe(done)
	for i := int64(0); i < n; i++ {
		r.vers[lba+i] = r.seq
	}
	if r.zd != nil {
		zone := op.Zone % r.zd.NumZones()
		if !r.conventional(zone) {
			r.wp[zone] += n
			if r.wp[zone] == r.zd.ZoneCapSectors() {
				r.full[zone] = true
			}
		}
	}
	return nil
}

// read issues a host read and verifies every returned sector against the
// oracle: version 0 must read back nil or all-zeros, anything else must be
// exactly the payload of its last write.
func (r *replayer) read(op Op) error {
	var lba, n int64
	if r.zd == nil {
		total := r.dev.TotalSectors()
		lba = (int64(op.Zone)*509 + op.Off) % total
		n = op.Len
		if n > total-lba {
			n = total - lba
		}
	} else {
		zone := op.Zone % r.zd.NumZones()
		zcap := r.zd.ZoneCapSectors()
		off := op.Off % zcap
		lba, n = int64(zone)*zcap+off, op.Len
		if n > zcap-off {
			n = zcap - off
		}
	}
	if n <= 0 {
		return nil
	}
	got, done, err := r.dev.Read(r.now, lba, n)
	if err != nil {
		return err
	}
	r.observe(done)
	if int64(len(got)) != n {
		return fmt.Errorf("read [%d,%d): got %d sectors, want %d", lba, lba+n, len(got), n)
	}
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
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// step executes one op. Personalities without an op (legacy has no zones,
// only ConZone implements finish/close) skip it, so the same sequence
// stays replayable everywhere.
func (r *replayer) step(op Op) error {
	switch op.Kind {
	case OpWrite:
		return r.write(op)
	case OpRead:
		return r.read(op)
	case OpFlush:
		if r.zd == nil {
			done, err := r.dev.FlushAll(r.now)
			if err != nil {
				return err
			}
			r.observe(done)
			return nil
		}
		zone := op.Zone % r.zd.NumZones()
		done, err := r.zd.Flush(r.now, zone)
		if err != nil {
			return err
		}
		r.observe(done)
		return nil
	case OpReset:
		if r.zd == nil {
			return nil
		}
		zone := op.Zone % r.zd.NumZones()
		if r.conventional(zone) {
			return nil
		}
		done, err := r.zd.ResetZone(r.now, zone)
		if err != nil {
			return err
		}
		r.observe(done)
		start := int64(zone) * r.zd.ZoneCapSectors()
		for l := start; l < start+r.zd.ZoneCapSectors(); l++ {
			r.vers[l] = 0
		}
		r.wp[zone], r.full[zone] = 0, false
		return nil
	case OpFinish:
		if r.f == nil {
			return nil
		}
		zone := op.Zone % r.zd.NumZones()
		if r.conventional(zone) {
			return nil
		}
		done, err := r.f.FinishZone(r.now, zone)
		if err != nil {
			return err
		}
		r.observe(done)
		// The finish pads the zone to capacity; the pads read back as
		// zeros, matching the oracle's version 0 for unwritten sectors.
		r.wp[zone] = r.zd.ZoneCapSectors()
		r.full[zone] = true
		return nil
	case OpClose:
		if r.f == nil {
			return nil
		}
		zone := op.Zone % r.zd.NumZones()
		// Closing is only legal from an open state; a zone with data and
		// not FULL is implicitly open (or already closed, which is a
		// no-op), so the guard keeps the op always-valid.
		if r.conventional(zone) || r.wp[zone] == 0 || r.full[zone] {
			return nil
		}
		done, err := r.f.CloseZone(r.now, zone)
		if err != nil {
			return err
		}
		r.observe(done)
		return nil
	}
	return fmt.Errorf("unknown op kind %d", int(op.Kind))
}

// Replay drives a fresh device of personality p through ops, verifying
// reads against the oracle and (for ConZone) running the full invariant
// audit every auditEvery ops and once at the end. It returns how many ops
// executed and the first divergence. A device that genuinely fills up
// (slc.ErrNoSpace) or degrades to read-only after exhausting its spare
// superblocks (fault.ErrReadOnly) ends the replay early without error —
// space exhaustion or graceful degradation under a hostile schedule is an
// outcome, not a bug. A mid-write error can leave the FTL with mapped
// sectors ahead of the uncommitted write pointer, so the early return
// deliberately skips the final audit.
func Replay(p Personality, cfg config.DeviceConfig, ops []Op, auditEvery int) (executed int, err error) {
	r, err := newReplayer(p, cfg)
	if err != nil {
		return 0, err
	}
	for i, op := range ops {
		if err := r.step(op); err != nil {
			if errors.Is(err, slc.ErrNoSpace) || errors.Is(err, fault.ErrReadOnly) {
				return i, nil
			}
			return i, fmt.Errorf("%s op %d (%s): %w", p, i, op, err)
		}
		if r.f != nil && auditEvery > 0 && (i+1)%auditEvery == 0 {
			if err := Audit(r.f); err != nil {
				return i, fmt.Errorf("%s after op %d (%s): %w", p, i, op, err)
			}
		}
	}
	if r.f != nil {
		if err := Audit(r.f); err != nil {
			return len(ops) - 1, fmt.Errorf("%s after final op: %w", p, err)
		}
	}
	return len(ops), nil
}

// Shrink reduces a failing sequence to a locally minimal reproducer by
// chunked removal (ddmin-style), bounded by a replay budget so shrinking a
// huge sequence stays fast. The returned sequence still fails.
func Shrink(p Personality, cfg config.DeviceConfig, ops []Op, auditEvery int) []Op {
	fails := func(seq []Op) (int, bool) {
		idx, err := Replay(p, cfg, seq, auditEvery)
		return idx, err != nil
	}
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

// RunSequence is the fuzz entry point: derive a seeded sequence, replay it
// against every personality, and on any divergence shrink to a minimal
// reproducer and report it.
func RunSequence(seed uint64, nOps, auditEvery int) error {
	cfg := FuzzConfig()
	probe, err := cfg.NewConZone()
	if err != nil {
		return err
	}
	ops := GenOps(seed, nOps, probe.NumZones(), probe.ZoneCapSectors())
	for _, p := range Personalities {
		if _, err := Replay(p, cfg, ops, auditEvery); err != nil {
			min := Shrink(p, cfg, ops, auditEvery)
			return fmt.Errorf("seed %#x on %s: %w\nminimal reproducer (%d ops):\n%s",
				seed, p, err, len(min), FormatOps(min))
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
	probe, err := cfg.NewConZone()
	if err != nil {
		return err
	}
	ops := GenOps(seed, nOps, probe.NumZones(), probe.ZoneCapSectors())
	if _, err := Replay(ConZone, cfg, ops, auditEvery); err != nil {
		min := Shrink(ConZone, cfg, ops, auditEvery)
		return fmt.Errorf("faulty seed %#x: %w\nminimal reproducer (%d ops):\n%s",
			seed, err, len(min), FormatOps(min))
	}
	return nil
}
