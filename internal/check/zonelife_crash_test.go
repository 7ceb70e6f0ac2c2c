package check

import (
	"errors"
	"testing"

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
	dry, err := newCrashRun(FuzzConfig())
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
func crashAt(t *testing.T, ops []Op, cut sim.Time) *crashRun {
	t.Helper()
	r, err := newCrashRun(FuzzConfig())
	if err != nil {
		t.Fatal(err)
	}
	r.f.ArmPowerCut(cut)
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
	if err := r.remountAndVerify(); err != nil {
		t.Fatal(err)
	}
	return r
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
	z, err := r.f.Zones().Zone(0)
	if err != nil {
		t.Fatal(err)
	}
	if z.State != zns.Full {
		t.Fatalf("finished zone recovered as %v, want FULL", z.State)
	}
	if z.WP != z.Start+z.Capacity {
		t.Fatalf("recovered WP = %d, want capacity %d", z.WP, z.Start+z.Capacity)
	}
	// remountAndVerify already checked the surviving payloads against the
	// oracle; the mirror must agree the zone is full.
	if !r.full[0] || r.wp[0] != r.zcap {
		t.Fatalf("mirror after remount: full=%v wp=%d", r.full[0], r.wp[0])
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
	z, err := r.f.Zones().Zone(0)
	if err != nil {
		t.Fatal(err)
	}
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
	if err := Audit(r.f); err != nil {
		t.Fatalf("audit after replay: %v", err)
	}
	z, _ = r.f.Zones().Zone(0)
	if z.State != zns.Full {
		t.Fatalf("re-finish after torn recovery left zone %v", z.State)
	}
}
