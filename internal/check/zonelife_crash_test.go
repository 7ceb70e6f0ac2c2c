package check

import (
	"errors"
	"testing"

	"github.com/conzone/conzone/internal/ftl"
	"github.com/conzone/conzone/internal/host"
	"github.com/conzone/conzone/internal/nand"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/zns"
)

// finishScript is the fixed scenario both regressions share: a partial
// write into zone 0, a finish that pads it out, then enough traffic in
// zone 1 to keep the device busy past the finish acknowledgment.
func finishScript() []Op {
	return []Op{
		{Kind: OpWrite, Zone: 0, Off: 0, Len: 10},
		{Kind: OpFinish, Zone: 0},
		{Kind: OpWrite, Zone: 1, Off: 0, Len: 300},
		{Kind: OpClose, Zone: 1},
	}
}

// dryTimes runs the script uninterrupted and returns the virtual time after
// each op.
func dryTimes(t *testing.T, ops []Op) []sim.Time {
	t.Helper()
	dry, err := newReplayer(ConZone, FuzzConfig())
	if err != nil {
		t.Fatal(err)
	}
	times := make([]sim.Time, len(ops))
	for i, op := range ops {
		if err := dry.step(op); err != nil {
			t.Fatalf("dry run op %d (%s): %v", i, op, err)
		}
		times[i] = dry.now
	}
	return times
}

// crashAt replays the script on a fresh device with a cut armed at the
// given instant, requiring the cut to fire, then remounts and verifies the
// durability oracle. The recovered run is returned for extra assertions.
func crashAt(t *testing.T, ops []Op, cut sim.Time) *replayer {
	t.Helper()
	r, err := newReplayer(ConZone, FuzzConfig())
	if err != nil {
		t.Fatal(err)
	}
	r.dev.(*ftl.FTL).ArmPowerCut(cut)
	crashed := false
	for i, op := range ops {
		err := r.step(op)
		if err == nil {
			continue
		}
		if !errors.Is(err, nand.ErrPowerLoss) {
			t.Fatalf("op %d (%s): %v", i, op, err)
		}
		crashed = true
		break
	}
	if !crashed {
		t.Fatalf("cut at %d never fired", cut)
	}
	if err := r.remount(); err != nil {
		t.Fatal(err)
	}
	return r
}

// zoneOf reads a zone descriptor off the replayer's (remounted) FTL.
func zoneOf(t *testing.T, r *replayer, zone int) zns.Zone {
	t.Helper()
	z, err := r.dev.(*ftl.FTL).Zones().Zone(zone)
	if err != nil {
		t.Fatal(err)
	}
	return z
}

// TestFinishedZoneDurableAcrossCrash pins the finish durability contract
// deterministically: a zone finished at a partial write pointer, crashed
// right after the acknowledgment, must remount Full at capacity with the
// written prefix intact and zeros beyond it — the pad-out is on media, not
// reconstructed from the journal.
func TestFinishedZoneDurableAcrossCrash(t *testing.T) {
	ops := finishScript()
	times := dryTimes(t, ops)
	r := crashAt(t, ops, times[1]+1) // tears the zone-1 write after the finish ack
	z := zoneOf(t, r, 0)
	if z.State != zns.Full {
		t.Fatalf("finished zone recovered as %v, want FULL", z.State)
	}
	if z.WP != z.Start+z.Capacity {
		t.Fatalf("recovered WP = %d, want capacity %d", z.WP, z.Start+z.Capacity)
	}
	// remount already checked the surviving payloads against the oracle;
	// the mirror must agree the zone is full.
	if r.wp[0] != r.zcap {
		t.Fatalf("mirror after remount: wp=%d, want %d", r.wp[0], r.zcap)
	}
}

// fullZoneScript fills zone 0 by writing — the last 32 sectors stay in the
// write buffer, and the zone goes FULL around them — then finishes it and
// keeps zone 1 busy past the acknowledgment.
func fullZoneScript() []Op {
	ops := make([]Op, 5, 8)
	for i := range ops {
		ops[i] = Op{Kind: OpWrite, Zone: 0, Len: 96}
	}
	return append(ops, Op{Kind: OpWrite, Zone: 0, Len: 32}, Op{Kind: OpFinish, Zone: 0}, Op{Kind: OpWrite, Zone: 1, Len: 300})
}

// TestFinishOfFullZoneDurableAcrossCrash pins that Finish is a barrier even
// when it has nothing to pad: the buffered tail of a zone that filled by
// writing must survive a cut right after the finish acknowledgment.
func TestFinishOfFullZoneDurableAcrossCrash(t *testing.T) {
	ops := fullZoneScript()
	r := crashAt(t, ops, dryTimes(t, ops)[6]+1) // tears the zone-1 write; remount reads everything back
	if r.vers[r.zcap-1] == 0 {
		t.Fatal("the zone's acknowledged tail did not survive the cut")
	}
}

// TestFinishOfFullZoneDrainsEveryPath checks the same hole where else it
// could open: a zone filled by Zone Append, and a finish that arrives
// through the host controller's queue path.
func TestFinishOfFullZoneDrainsEveryPath(t *testing.T) {
	for _, viaHost := range []bool{false, true} {
		f, err := FuzzConfig().NewConZone()
		if err != nil {
			t.Fatal(err)
		}
		var dev interface {
			Append(at sim.Time, zone int, payloads [][]byte) (int64, sim.Time, error)
			zoneFinisher
		} = f
		if viaHost {
			if dev, err = host.New(f, host.Config{}); err != nil {
				t.Fatal(err)
			}
		}
		var now sim.Time
		for _, op := range fullZoneScript()[:6] {
			if _, now, err = dev.Append(now, 0, make([][]byte, op.Len)); err != nil {
				t.Fatal(err)
			}
		}
		if _, n := f.Buffers().Buffered(0); n == 0 {
			t.Fatal("the full zone's tail is not buffered: the test proves nothing")
		}
		if _, err := dev.FinishZone(now, 0); err != nil {
			t.Fatal(err)
		}
		if _, n := f.Buffers().Buffered(0); n != 0 {
			t.Fatalf("host=%v: finish of a FULL zone left %d sectors in the write buffer", viaHost, n)
		}
	}
}

// TestTornFinishCrashRecoversUnacked cuts power midway through the pad-out:
// the finish was never acknowledged, so the zone must not recover Full, the
// pre-finish data must survive, and the landed pad prefix must satisfy the
// durability oracle (zeros only).
func TestTornFinishCrashRecoversUnacked(t *testing.T) {
	ops := finishScript()
	times := dryTimes(t, ops)
	cut := times[0] + (times[1]-times[0])/2
	r := crashAt(t, ops, cut)
	z := zoneOf(t, r, 0)
	if z.State == zns.Full {
		t.Fatal("unacknowledged finish recovered as FULL")
	}
	if w := z.Written(); w < 10 {
		t.Fatalf("recovered WP %d lost pre-finish data", w)
	}
	// The device keeps working: replay the rest of the script and audit.
	for i, op := range ops[1:] {
		if err := r.step(op); err != nil {
			t.Fatalf("replay op %d (%s): %v", i+1, op, err)
		}
	}
	if err := r.audit(); err != nil {
		t.Fatalf("audit after replay: %v", err)
	}
	if z = zoneOf(t, r, 0); z.State != zns.Full {
		t.Fatalf("re-finish after torn recovery left zone %v", z.State)
	}
}
