package check

import (
	"bytes"
	"fmt"

	"github.com/conzone/conzone/internal/ftl"
	"github.com/conzone/conzone/internal/sim"
)

// The oracle, and the crash half of the replay. A seeded op sequence runs
// once uninterrupted to learn its virtual duration, then again on a fresh
// device with a power cut armed at a seeded instant inside that window.
// When the cut fires the replayer remounts the device (ftl.Recover) and
// verifies the durability contract sector by sector:
//
//   - every sector a successful barrier (zone flush, close, finish) or an
//     acknowledged reset made durable reads back exactly;
//   - every other sector reads back as one of the versions the crash could
//     legally leave: an acknowledged-but-unflushed write, the pre-barrier
//     durable version, zeros for a torn write or torn reset;
//   - the cross-subsystem audit is clean after the remount, and
//     Stats.LostAckSectors stayed zero on the crashed device;
//   - the remounted device keeps working: the rest of the sequence replays
//     on it with full read verification, periodic audits and a final audit.

// oracle is what the replayer knows about every sector, kept on every
// replay whether or not a cut is armed. Versions are the replayer's write
// sequence numbers; 0 is "never written", which reads back as zeros. The
// acceptable sets are exact at barriers (a single version survives) and a
// superset in between — a Write may drain buffered data early, so any
// version acknowledged since the last barrier is accepted. Sequence numbers
// grow monotonically, which keeps the sets tiny.
type oracle struct {
	vers []uint32   // last acknowledged version: what a read must return
	okv  [][]uint32 // versions a power cut may leave; nil = {0}
	torn tornOp     // the op the cut interrupted
}

// tornOp widens the acceptable sets of [lba, lba+n) by ver: the landed
// prefix of a cut write, or the zeros of a cut reset.
type tornOp struct {
	lba, n int64
	ver    uint32
}

func newOracle(sectors int64) oracle {
	return oracle{vers: make([]uint32, sectors), okv: make([][]uint32, sectors)}
}

// holds reports whether got is version ver of sector l.
func holds(l int64, ver uint32, got []byte) bool {
	if ver != 0 {
		return bytes.Equal(got, payloadFor(l, ver))
	}
	for _, c := range got {
		if c != 0 {
			return false
		}
	}
	return true
}

// ackWrite records an acknowledged write: readable immediately, and one of
// the versions a crash may leave behind.
func (o *oracle) ackWrite(lba, n int64, ver uint32) {
	for l := lba; l < lba+n; l++ {
		o.vers[l] = ver
		if o.okv[l] == nil {
			o.okv[l] = []uint32{0}
		}
		o.okv[l] = append(o.okv[l], ver)
	}
}

// barrier collapses the acceptable sets of a range to the acknowledged
// version: a successful flush-class command made everything acknowledged
// durable.
func (o *oracle) barrier(lba, n int64) {
	for l := lba; l < lba+n; l++ {
		if o.okv[l] != nil {
			o.okv[l] = o.okv[l][len(o.okv[l])-1:]
		}
	}
}

// ackReset zeroes a range: the erase and its journal record are durable the
// moment the reset is acknowledged.
func (o *oracle) ackReset(lba, n int64) {
	for l := lba; l < lba+n; l++ {
		o.vers[l], o.okv[l] = 0, nil
	}
}

// acceptable returns the versions sector l may legally hold after the crash.
func (o *oracle) acceptable(l int64) []uint32 {
	set := o.okv[l]
	if set == nil {
		set = []uint32{0}
	}
	if t := o.torn; l >= t.lba && l < t.lba+t.n {
		set = append(set[:len(set):len(set)], t.ver)
	}
	return set
}

// adopt checks a post-crash read of sector l against its acceptable set and
// makes the version that survived the acknowledged one.
func (o *oracle) adopt(l int64, got []byte) error {
	for _, v := range o.acceptable(l) {
		if holds(l, v, got) {
			o.vers[l] = v
			return nil
		}
	}
	return fmt.Errorf("post-remount LPA %d: survivor matches none of the acceptable versions %v", l, o.acceptable(l))
}

// remount recovers the crashed FTL, checks every sector against its
// acceptable set, resynchronizes the mirrors to what actually survived, and
// audits the recovered state.
func (r *replayer) remount() error {
	f := r.dev.(*ftl.FTL) // replay armed the cut on it
	if got := f.Stats().LostAckSectors; got != 0 {
		return fmt.Errorf("crashed device lost %d acknowledged sectors before the cut", got)
	}
	f, done, err := f.Remount()
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	r.mount(conzoneRig(f, r.cfg))
	r.observe(done)
	if err := r.audit(); err != nil {
		return fmt.Errorf("audit after remount: %w", err)
	}
	if got := f.Stats().LostAckSectors; got != 0 {
		return fmt.Errorf("remount reports %d lost acknowledged sectors", got)
	}

	// Full read-back, a chunk at a time inside each zone.
	for lba, n := int64(0), int64(0); lba < int64(len(r.vers)); lba += n {
		n = min(64, r.zcap-lba%r.zcap)
		got, done, err := f.Read(r.now, lba, n)
		if err != nil {
			return fmt.Errorf("post-remount read [%d,%d): %w", lba, lba+n, err)
		}
		r.observe(done)
		for i, p := range got {
			if err := r.adopt(lba+int64(i), p); err != nil {
				return err
			}
		}
	}
	r.torn = tornOp{}

	// Resync the mirrored write pointers from the recovered ones, which
	// must cover every sector the read-back found data in.
	for zone := r.conv; zone < len(r.wp); zone++ {
		z, err := f.Zones().Zone(zone)
		if err != nil {
			return err
		}
		r.wp[zone] = z.WP - z.Start
		for off := r.wp[zone]; off < r.zcap; off++ {
			if r.vers[int64(zone)*r.zcap+off] != 0 {
				return fmt.Errorf("zone %d: surviving data at offset %d beyond recovered write pointer %d",
					zone, off, r.wp[zone])
			}
		}
	}
	return nil
}

// RunCrashSequence is the crash-fuzz entry point: derive a seeded sequence,
// learn its uninterrupted virtual duration, then replay it on a fresh device
// with a cut armed at a seeded instant inside it. withFaults additionally
// arms the NAND fault model, exercising the injector stream/cursor carry
// across the remount. Sequences that exhaust space or degrade to read-only
// end early without error, as in RunSequence. The returned flag reports
// whether the cut actually fired — callers use it to guard the corpus
// against going stale.
func RunCrashSequence(seed uint64, nOps, auditEvery int, withFaults bool) (crashed bool, err error) {
	cfg := FuzzConfig()
	if withFaults {
		cfg = FaultFuzzConfig(seed)
	}
	ops, err := fuzzOps(cfg, seed, nOps)
	if err != nil {
		return false, err
	}
	u := run{p: ConZone, cfg: cfg, ops: ops}
	dry, err := u.replay()
	if err != nil {
		return false, fmt.Errorf("seed %#x dry run: %w", seed, err)
	}
	if dry.end == 0 {
		return false, nil // sequence touched no media; nothing to crash
	}
	u.auditEvery = auditEvery
	u.cut = sim.Time(1 + sim.NewRand(seed^0xC4A54).Int63n(int64(dry.end)))
	out, err := u.replay()
	if err != nil {
		err = reproducer(fmt.Errorf("seed %#x cut %d: %w", seed, u.cut, err), u.shrink())
	}
	return out.crashedAt >= 0, err
}
