package host

import (
	"testing"

	"github.com/conzone/conzone/internal/sim"
)

// TestZoneLocks pins the lock-target rule and the table's answers: a lock
// horizon only moves later, a read's target holds nothing, and a flush-all
// waits for and re-arms every zone.
func TestZoneLocks(t *testing.T) {
	const zcap = 100
	l := zoneLocks{free: make([]sim.Time, 4)}
	for _, tc := range []struct {
		req  Request
		want lockTarget
	}{
		{Request{Op: OpRead, LBA: 250, N: 1}, lockNone},
		{Request{Op: OpWrite, LBA: 250}, 2},
		{Request{Op: OpAppend, Zone: 3}, 3},
		{Request{Op: OpFlush, Zone: 1}, 1},
		{Request{Op: OpFlush, Zone: -1}, lockAll},
		{Request{Op: OpReset, Zone: 0}, 0},
		{Request{Op: OpClose, Zone: 2}, 2},
		{Request{Op: OpFinish, Zone: 3}, 3},
	} {
		if got := l.target(&tc.req, zcap); got != tc.want {
			t.Errorf("target(%v zone %d lba %d) = %d, want %d", tc.req.Op, tc.req.Zone, tc.req.LBA, got, tc.want)
		}
	}
	for tgt, want := range map[lockTarget]int{lockNone: -1, lockAll: -1, 0: 0, 3: 3} {
		if got := tgt.zone(); got != want {
			t.Errorf("lockTarget(%d).zone() = %d, want %d", tgt, got, want)
		}
	}

	l.release(1, 50)
	l.release(2, 30)
	l.release(2, 20) // an earlier completion never pulls a horizon back
	l.release(lockNone, 999)
	for _, tc := range []struct {
		t        lockTarget
		at, want sim.Time
	}{
		{lockNone, 10, 10}, {0, 10, 10}, {1, 10, 50}, {2, 10, 30}, {2, 40, 40}, {lockAll, 10, 50}, {lockAll, 60, 60},
	} {
		if got := l.ready(tc.t, tc.at); got != tc.want {
			t.Errorf("ready(%d, %d) = %d, want %d", tc.t, tc.at, got, tc.want)
		}
	}
	l.release(lockAll, 70)
	l.release(lockAll, 60)
	for z := range l.free {
		if got := l.ready(lockTarget(z), 0); got != 70 {
			t.Errorf("after a flush-all completing at 70, zone %d frees at %d", z, got)
		}
	}
}

// BenchmarkZoneLocks is one write-class command's lock cycle per operation:
// its target at submit, its ready time, and the release at its completion,
// over 96 zones, with a flush-all every 64th command.
func BenchmarkZoneLocks(b *testing.B) {
	const zones, zcap = 96, 4096
	l := zoneLocks{free: make([]sim.Time, zones)}
	reqs := make([]Request, 64)
	for i := range reqs {
		reqs[i] = Request{Op: OpWrite, LBA: int64(i*37%zones) * zcap, Payloads: make([][]byte, 1)}
	}
	reqs[63] = Request{Op: OpFlush, Zone: -1}
	var now sim.Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := l.target(&reqs[i&63], zcap)
		at := l.ready(t, now)
		l.release(t, at+100)
		now += 10
	}
}
