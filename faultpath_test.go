package conzone

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/conzone/conzone/internal/fault"
)

// TestReadOnlyDegradationAuditClean drives a device with guaranteed erase
// failures until its superblock pool drains to read-only, verifying at each
// cycle that acknowledged data stays readable — and, crucially, that the
// device is still audit-clean afterwards: a failed write must leave media,
// mapping, write pointers and the write buffer mutually consistent (the
// failing request's own un-acknowledged sectors are rolled back out of the
// buffer rather than left stranded).
func TestReadOnlyDegradationAuditClean(t *testing.T) {
	cfg := SmallConfig()
	cfg.FTL.SpareSuperblocks = 1
	cfg.FTL.Faults = &fault.Config{Seed: 11, TLC: fault.Probabilities{EraseFail: 1}}
	dev, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	zb := int64(512 * 4096)
	data := bytes.Repeat([]byte{0xAB}, 512*1024)

	degraded := false
	for i := 0; i < 50 && !degraded; i++ {
		if err := dev.Write(0, data); err != nil {
			if !errors.Is(err, fault.ErrReadOnly) {
				t.Fatalf("cycle %d: write: %v", i, err)
			}
			degraded = true
			break
		}
		if err := dev.FlushZone(0); err != nil && !errors.Is(err, fault.ErrReadOnly) {
			t.Fatalf("cycle %d: flush: %v", i, err)
		}
		got, err := dev.Read(0, len(data))
		if err != nil {
			t.Fatalf("cycle %d: read: %v", i, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("cycle %d: acknowledged data unreadable", i)
		}
		if err := dev.ResetZone(0); err != nil && !errors.Is(err, fault.ErrReadOnly) {
			t.Fatalf("cycle %d: reset: %v", i, err)
		}
		degraded = dev.FTL().ReadOnly()
	}
	if !degraded {
		t.Fatal("device never degraded to read-only with every erase failing")
	}
	st := dev.FTL().Stats()
	if st.LostAckSectors != 0 {
		t.Fatalf("lost %d acknowledged sectors", st.LostAckSectors)
	}
	if fs := dev.FTL().FaultInjector().Stats(); fs.EraseFails == 0 || st.RetiredSuperblocks == 0 {
		t.Fatalf("degradation without failures? stats = %+v, faults = %+v", st, fs)
	}

	// Reads keep working; writes are rejected with the typed sentinel.
	if err := dev.Write(1*zb, data[:4096]); !errors.Is(err, fault.ErrReadOnly) {
		t.Fatalf("write in read-only state: err = %v, want fault.ErrReadOnly", err)
	}
	if _, err := dev.Read(1*zb, 4096); err != nil {
		t.Fatalf("read in read-only state: %v", err)
	}
	if err := dev.CheckInvariants(); err != nil {
		t.Fatalf("audit after read-only degradation: %v", err)
	}
}

// TestFlushBarrierDurableAcrossRemount pins the flush-path durability
// contract: a nil return from FlushZone means the zone's acknowledged data
// is on media and survives an abrupt power cut, while acknowledged data
// that was never flushed may legally vanish — but only back to the
// recovered write pointer, never to garbage.
func TestFlushBarrierDurableAcrossRemount(t *testing.T) {
	dev, err := Open(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	zb := dev.ZoneBytes()
	flushed := bytes.Repeat([]byte{0x5A}, int(5*SectorSize))
	volatile := bytes.Repeat([]byte{0xA5}, int(5*SectorSize))
	if err := dev.Write(0, flushed); err != nil {
		t.Fatal(err)
	}
	if err := dev.FlushZone(0); err != nil {
		t.Fatalf("flush of zone 0: %v", err)
	}
	if err := dev.Write(zb, volatile); err != nil {
		t.Fatal(err)
	}

	// Cut power without warning and remount.
	if err := dev.Remount(); err != nil {
		t.Fatalf("remount: %v", err)
	}
	if st := dev.FTL().Stats(); st.LostAckSectors != 0 {
		t.Fatalf("lost %d acknowledged sectors across remount", st.LostAckSectors)
	}
	if err := dev.CheckInvariants(); err != nil {
		t.Fatalf("audit after remount: %v", err)
	}

	// The flushed run survived, write pointer included.
	z0, _ := dev.Zone(0)
	if z0.Written() != 5 {
		t.Fatalf("zone 0 recovered WP = %d sectors, want 5", z0.Written())
	}
	got, err := dev.Read(0, len(flushed))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, flushed) {
		t.Fatal("flushed data did not survive the remount")
	}

	// The unflushed run was volatile-only: the zone recovers empty and the
	// sectors read back as unwritten — not as stale garbage.
	z1, _ := dev.Zone(1)
	if z1.Written() != 0 {
		t.Fatalf("zone 1 recovered WP = %d sectors, want 0 (never flushed)", z1.Written())
	}
	got, err = dev.Read(zb, len(volatile))
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("unflushed sector byte %d = %#x, want 0", i, b)
		}
	}

	// The recovered device keeps working at the recovered write pointers.
	more := bytes.Repeat([]byte{0x3C}, int(3*SectorSize))
	if err := dev.Write(5*SectorSize, more); err != nil {
		t.Fatalf("write after remount: %v", err)
	}
	if err := dev.FlushZone(0); err != nil {
		t.Fatal(err)
	}
	got, err = dev.Read(5*SectorSize, len(more))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, more) {
		t.Fatal("post-remount write unreadable")
	}
}

// TestTornFlushReturnsPowerLoss pins the other half of the contract: when
// the cut tears the flush itself, FlushZone must return ErrPowerLoss — a
// nil return with the data still volatile-only would be a lie the host
// could never detect.
func TestTornFlushReturnsPowerLoss(t *testing.T) {
	dev, err := Open(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x77}, int(5*SectorSize))
	if err := dev.Write(0, data); err != nil {
		t.Fatal(err)
	}
	// Arm the cut just past the current instant: the flush's program is the
	// first media operation to straddle it.
	dev.ArmPowerCut(Time(dev.Now()) + Time(time.Nanosecond))
	err = dev.FlushZone(0)
	if err == nil {
		t.Fatal("FlushZone returned nil with acknowledged data still volatile-only")
	}
	if !errors.Is(err, ErrPowerLoss) {
		t.Fatalf("torn flush: err = %v, want ErrPowerLoss", err)
	}
	if !dev.PowerLost() {
		t.Fatal("device alive after its cut fired")
	}
	// Every subsequent command fails the same way until a remount.
	if err := dev.Write(5*SectorSize, data[:SectorSize]); !errors.Is(err, ErrPowerLoss) {
		t.Fatalf("write after cut: %v", err)
	}
	if _, err := dev.Read(0, int(SectorSize)); !errors.Is(err, ErrPowerLoss) {
		t.Fatalf("read after cut: %v", err)
	}

	if err := dev.Remount(); err != nil {
		t.Fatalf("remount: %v", err)
	}
	if st := dev.FTL().Stats(); st.LostAckSectors != 0 {
		t.Fatalf("lost %d acknowledged sectors", st.LostAckSectors)
	}
	if err := dev.CheckInvariants(); err != nil {
		t.Fatalf("audit after remount: %v", err)
	}
	// The torn flush never reached media: the zone recovers empty, and the
	// device accepts the data again from the start.
	z0, _ := dev.Zone(0)
	if z0.Written() != 0 {
		t.Fatalf("zone 0 recovered WP = %d sectors after torn flush, want 0", z0.Written())
	}
	if err := dev.Write(0, data); err != nil {
		t.Fatalf("write after remount: %v", err)
	}
	if err := dev.FlushZone(0); err != nil {
		t.Fatalf("flush after remount: %v", err)
	}
	got, err := dev.Read(0, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("retried data unreadable after recovery")
	}
}
