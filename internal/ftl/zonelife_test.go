package ftl

import (
	"errors"
	"testing"

	"github.com/conzone/conzone/internal/nand"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/zns"
)

// finishLatency builds a fresh FTL, writes the zone to the given fill
// fraction, and returns the virtual time its FinishZone took.
func finishLatency(t *testing.T, fill float64) sim.Time {
	t.Helper()
	f := newTestFTL(t)
	zc := f.ZoneCapSectors()
	n := int64(fill * float64(zc))
	var at sim.Time
	if n > 0 {
		done, err := f.Write(0, 0, payloadsFor(0, n))
		if err != nil {
			t.Fatal(err)
		}
		// Drain the write buffer first so the measured latency is the
		// pad-out itself, not a flush of buffered host data.
		done, err = f.Flush(done, 0)
		if err != nil {
			t.Fatal(err)
		}
		at = done
	}
	done, err := f.FinishZone(at, 0)
	if err != nil {
		t.Fatalf("finish at fill %.2f: %v", fill, err)
	}
	return done - at
}

// TestFinishLatencyScalesWithFullness pins the tentpole: finishing an
// emptier zone pads more sectors and must take strictly longer, the
// finish-latency-vs-fullness curve of the ZNS characterization papers.
func TestFinishLatencyScalesWithFullness(t *testing.T) {
	fills := []float64{0, 0.25, 0.5, 0.75, 0.9}
	var prev sim.Time
	for i, fill := range fills {
		d := finishLatency(t, fill)
		if d <= 0 {
			t.Fatalf("finish at fill %.2f charged no virtual time", fill)
		}
		if i > 0 && d >= prev {
			t.Fatalf("finish latency not strictly decreasing: fill %.2f took %d, fill %.2f took %d",
				fills[i-1], prev, fill, d)
		}
		prev = d
	}
}

// TestFinishPadsZoneOnMedia checks the observable pad-out effects: write
// pointer at capacity, pad sectors counted (and excluded from host bytes),
// the padded range reading back as zeros, and a consistent audit.
func TestFinishPadsZoneOnMedia(t *testing.T) {
	f := newTestFTL(t)
	zc := f.ZoneCapSectors()
	const written = 10
	done, err := f.Write(0, 0, payloadsFor(0, written))
	if err != nil {
		t.Fatal(err)
	}
	host := f.Stats().HostWrittenBytes
	prog := f.Array().Counters().BytesProgrammed
	done, err = f.FinishZone(done, 0)
	if err != nil {
		t.Fatal(err)
	}
	z, _ := f.Zones().Zone(0)
	if z.State != zns.Full || z.WP != z.Start+z.Capacity {
		t.Fatalf("zone after finish: state %v WP %d, want FULL at capacity %d", z.State, z.WP, z.Start+z.Capacity)
	}
	st := f.Stats()
	if st.ZoneFinishes != 1 {
		t.Errorf("ZoneFinishes = %d, want 1", st.ZoneFinishes)
	}
	if st.PadSectors != zc-written {
		t.Errorf("PadSectors = %d, want %d", st.PadSectors, zc-written)
	}
	if st.HostWrittenBytes != host {
		t.Errorf("pad-out counted as host writes: %d -> %d", host, st.HostWrittenBytes)
	}
	if got := f.Array().Counters().BytesProgrammed; got <= prog {
		t.Errorf("pad-out programmed no media bytes (%d -> %d)", prog, got)
	}
	verifyRead(t, f, done, 0, written)
	got, _, err := f.Read(done, written, zc-written)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range got {
		for _, b := range s {
			if b != 0 {
				t.Fatalf("pad sector %d holds non-zero data", written+i)
			}
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("invariants after finish: %v", err)
	}
	// Idempotent: a second finish charges nothing.
	done2, err := f.FinishZone(done, 0)
	if err != nil {
		t.Fatal(err)
	}
	if done2 != done {
		t.Errorf("finish of a FULL zone charged %d virtual time", done2-done)
	}
	if f.Stats().ZoneFinishes != 1 {
		t.Errorf("idempotent finish recounted: ZoneFinishes = %d", f.Stats().ZoneFinishes)
	}
}

// TestRejectedManagementChargesNoMediaTime pins the validation-first
// ordering: a close or finish the state machine rejects must not drain the
// write buffer or touch media, and a dead device fails management commands
// outright.
func TestRejectedManagementChargesNoMediaTime(t *testing.T) {
	f := newConvFTL(t)
	// Buffer data in the conventional zone; the rejected finish/close must
	// leave it buffered (StagedSectors counts SLC arrivals on flush).
	if _, err := f.Write(0, 0, payloadsFor(0, 4)); err != nil {
		t.Fatal(err)
	}
	prog := f.Array().Counters().BytesProgrammed
	staged := f.Stats().StagedSectors
	if _, err := f.FinishZone(10, 0); !errors.Is(err, zns.ErrConventional) {
		t.Fatalf("finish of conventional zone: %v", err)
	}
	if _, err := f.CloseZone(10, 0); !errors.Is(err, zns.ErrConventional) {
		t.Fatalf("close of conventional zone: %v", err)
	}
	if _, err := f.CloseZone(10, 2); !errors.Is(err, zns.ErrNotOpen) {
		t.Fatalf("close of an empty zone: %v", err)
	}
	if _, err := f.FinishZone(10, f.NumZones()+3); !errors.Is(err, zns.ErrInvalidZone) {
		t.Fatalf("finish of invalid zone: %v", err)
	}
	if got := f.Stats().StagedSectors; got != staged {
		t.Errorf("rejected management drained the buffer: StagedSectors %d -> %d", staged, got)
	}
	if got := f.Array().Counters().BytesProgrammed; got != prog {
		t.Errorf("rejected management programmed media: %d -> %d", prog, got)
	}

	// A dead device: management commands fail with the power error before
	// any validation or drain.
	f2 := newTestFTL(t)
	if _, err := f2.Write(0, 0, payloadsFor(0, 4)); err != nil {
		t.Fatal(err)
	}
	f2.ArmPowerCut(100)
	prog = f2.Array().Counters().BytesProgrammed
	if _, err := f2.FinishZone(200, 0); !errors.Is(err, nand.ErrPowerLoss) {
		t.Fatalf("finish after power loss: %v", err)
	}
	if _, err := f2.CloseZone(200, 0); !errors.Is(err, nand.ErrPowerLoss) {
		t.Fatalf("close after power loss: %v", err)
	}
	if got := f2.Array().Counters().BytesProgrammed; got != prog {
		t.Errorf("dead device programmed media on management: %d -> %d", prog, got)
	}
}

// TestFinishDurableAcrossRemount is the durability half of the tentpole: a
// zone finished at a partial write pointer must recover as Full — the pads
// are on media — with the written prefix intact and zeros beyond it.
func TestFinishDurableAcrossRemount(t *testing.T) {
	f := newTestFTL(t)
	zc := f.ZoneCapSectors()
	const written = 10
	done, err := f.Write(0, 0, payloadsFor(0, written))
	if err != nil {
		t.Fatal(err)
	}
	done, err = f.FinishZone(done, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Unplanned cut right after the acknowledgment.
	f.ArmPowerCut(done + 1)
	if _, err := f.Write(done+2, zc, payloadsFor(zc, 1)); !errors.Is(err, nand.ErrPowerLoss) {
		t.Fatalf("write after the cut: %v", err)
	}
	f2, done, err := Recover(f.Array(), testParams())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	z, _ := f2.Zones().Zone(0)
	if z.State != zns.Full {
		t.Fatalf("finished zone recovered as %v, want FULL", z.State)
	}
	if z.WP != z.Start+z.Capacity {
		t.Fatalf("recovered WP = %d, want capacity %d", z.WP, z.Start+z.Capacity)
	}
	verifyRead(t, f2, done, 0, written)
	got, _, err := f2.Read(done, written, zc-written)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range got {
		for _, b := range s {
			if b != 0 {
				t.Fatalf("recovered pad sector %d holds non-zero data", written+i)
			}
		}
	}
	if err := f2.CheckInvariants(); err != nil {
		t.Fatalf("invariants after remount: %v", err)
	}
	if got := f2.Stats().LostAckSectors; got != 0 {
		t.Fatalf("remount lost %d acknowledged sectors", got)
	}
}

// TestTornFinishRecoversUnacked cuts power in the middle of the pad-out:
// the finish was never acknowledged, so the zone may legally recover short
// of capacity (Closed at the pad's landed prefix), the pre-finish data must
// survive, and the recovered state must audit clean and stay usable.
func TestTornFinishRecoversUnacked(t *testing.T) {
	// Dry run to learn the pad-out window.
	f := newTestFTL(t)
	const written = 10
	wdone, err := f.Write(0, 0, payloadsFor(0, written))
	if err != nil {
		t.Fatal(err)
	}
	fdone, err := f.FinishZone(wdone, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Same schedule, cut midway through the pad-out.
	f = newTestFTL(t)
	if _, err := f.Write(0, 0, payloadsFor(0, written)); err != nil {
		t.Fatal(err)
	}
	f.ArmPowerCut(wdone + (fdone-wdone)/2)
	if _, err := f.FinishZone(wdone, 0); !errors.Is(err, nand.ErrPowerLoss) {
		t.Fatalf("torn finish returned %v, want power loss", err)
	}
	f2, done, err := Recover(f.Array(), testParams())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	z, _ := f2.Zones().Zone(0)
	if z.State == zns.Full {
		t.Fatal("unacknowledged finish recovered as FULL")
	}
	if w := z.Written(); w < written {
		t.Fatalf("recovered WP %d lost pre-finish data (want >= %d)", w, written)
	}
	verifyRead(t, f2, done, 0, written)
	// Everything the landed pads cover reads back as zeros.
	if z.Written() > written {
		got, _, err := f2.Read(done, written, z.Written()-written)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range got {
			for _, b := range s {
				if b != 0 {
					t.Fatalf("landed pad sector %d holds non-zero data", written+i)
				}
			}
		}
	}
	if err := f2.CheckInvariants(); err != nil {
		t.Fatalf("invariants after torn finish: %v", err)
	}
	// The zone is still usable: finish it again, for real this time.
	fin, err := f2.FinishZone(done, 0)
	if err != nil {
		t.Fatalf("re-finish after torn recovery: %v", err)
	}
	z, _ = f2.Zones().Zone(0)
	if z.State != zns.Full || z.WP != z.Start+z.Capacity {
		t.Fatalf("re-finish left zone %v at WP %d", z.State, z.WP)
	}
	verifyRead(t, f2, fin, 0, written)
}
