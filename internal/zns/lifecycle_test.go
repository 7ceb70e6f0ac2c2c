package zns

import (
	"errors"
	"testing"

	"github.com/conzone/conzone/internal/sim"
)

// TestRunningCountersMatchScan drives a long random transition schedule and
// checks after every operation that the running open/active counters equal
// a full rescan of the zone table — the equivalence the O(1) fast path
// rests on.
func TestRunningCountersMatchScan(t *testing.T) {
	m, err := NewManager(Config{NumZones: 12, ZoneSize: 64, ZoneCapacity: 64, MaxOpen: 3, MaxActive: 5})
	if err != nil {
		t.Fatal(err)
	}
	r := sim.NewRand(0x10CC)
	check := func(step int, opName string) {
		t.Helper()
		if m.OpenCount() != m.scanOpen() {
			t.Fatalf("step %d (%s): OpenCount %d != scan %d", step, opName, m.OpenCount(), m.scanOpen())
		}
		if m.ActiveCount() != m.scanActive() {
			t.Fatalf("step %d (%s): ActiveCount %d != scan %d", step, opName, m.ActiveCount(), m.scanActive())
		}
	}
	for i := 0; i < 4000; i++ {
		id := int(r.Int63n(int64(m.NumZones())))
		z, _ := m.Zone(id)
		var opName string
		switch r.Int63n(6) {
		case 0:
			opName = "open"
			m.Open(id)
		case 1:
			opName = "close"
			m.Close(id)
		case 2:
			opName = "finish"
			m.Finish(id)
		case 3:
			opName = "reset"
			m.Reset(id)
		case 4:
			opName = "write"
			n := 1 + r.Int63n(16)
			if n > z.Remaining() {
				n = z.Remaining()
			}
			if n > 0 {
				m.CommitWrite(z.WP, n)
			}
		case 5:
			opName = "restore"
			m.Restore(id, z.Start+r.Int63n(z.Capacity+1))
		}
		check(i, opName)
	}
}

// TestMaxOpenZeroNormalizedToActive pins the config normalization: an
// unlimited open count under a finite active limit is contradictory (every
// open zone holds active resources), so the effective open limit clamps to
// MaxActive.
func TestMaxOpenZeroNormalizedToActive(t *testing.T) {
	m, err := NewManager(Config{NumZones: 8, ZoneSize: 64, ZoneCapacity: 64, MaxOpen: 0, MaxActive: 3})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 3; id++ {
		if err := m.Open(id); err != nil {
			t.Fatalf("open zone %d under the clamped limit: %v", id, err)
		}
	}
	if err := m.Open(3); !errors.Is(err, ErrTooManyOpenZones) {
		t.Fatalf("4th open with MaxOpen=0, MaxActive=3: got %v, want ErrTooManyOpenZones", err)
	}
	// Both limits truly unlimited still works.
	m, err = NewManager(Config{NumZones: 8, ZoneSize: 64, ZoneCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 8; id++ {
		if err := m.Open(id); err != nil {
			t.Fatalf("open zone %d with no limits: %v", id, err)
		}
	}
}

// TestFinishMovesWritePointerToCapacity pins the durable-Full semantics:
// Finish leaves the write pointer at capacity, the same observable state as
// writing the zone full, so Written/Remaining and Report agree with what
// the padded media holds.
func TestFinishMovesWritePointerToCapacity(t *testing.T) {
	m := newTestManager(t)
	if err := m.CommitWrite(0, 10); err != nil {
		t.Fatal(err)
	}
	if err := m.Finish(0); err != nil {
		t.Fatal(err)
	}
	z, _ := m.Zone(0)
	if z.State != Full {
		t.Errorf("state = %v, want FULL", z.State)
	}
	if z.WP != z.Start+z.Capacity {
		t.Errorf("WP = %d, want capacity %d", z.WP, z.Start+z.Capacity)
	}
	if z.Remaining() != 0 || z.Written() != z.Capacity {
		t.Errorf("Written/Remaining = %d/%d after finish", z.Written(), z.Remaining())
	}
}

// TestCanCloseCanFinishValidateOnly checks the validate-only entry points
// agree with the mutating ones and change no state on rejection — the FTL
// depends on that to charge zero media time for rejected commands.
func TestCanCloseCanFinishValidateOnly(t *testing.T) {
	m := newTestManager(t)
	if err := m.CanClose(-1); !errors.Is(err, ErrInvalidZone) {
		t.Errorf("CanClose(-1) = %v", err)
	}
	if err := m.CanFinish(99); !errors.Is(err, ErrInvalidZone) {
		t.Errorf("CanFinish(99) = %v", err)
	}
	// Zone 0 is Empty: close is invalid, finish is valid.
	if err := m.CanClose(0); !errors.Is(err, ErrNotOpen) {
		t.Errorf("CanClose(empty) = %v, want ErrNotOpen", err)
	}
	if err := m.CanFinish(0); err != nil {
		t.Errorf("CanFinish(empty) = %v", err)
	}
	z, _ := m.Zone(0)
	if z.State != Empty || z.WP != z.Start {
		t.Errorf("validation mutated zone 0: %+v", z)
	}
	// A full zone: finish is an idempotent yes, close is a no.
	if err := m.Finish(1); err != nil {
		t.Fatal(err)
	}
	if err := m.CanFinish(1); err != nil {
		t.Errorf("CanFinish(full) = %v", err)
	}
	if err := m.CanClose(1); !errors.Is(err, ErrNotOpen) {
		t.Errorf("CanClose(full) = %v, want ErrNotOpen", err)
	}
	// Per-state agreement with the mutating calls, on fresh managers.
	for _, open := range []bool{false, true} {
		a, b := newTestManager(t), newTestManager(t)
		if open {
			a.Open(2)
			b.Open(2)
		}
		if got, want := a.CanClose(2), b.Close(2); (got == nil) != (want == nil) {
			t.Errorf("open=%v: CanClose=%v but Close=%v", open, got, want)
		}
		a, b = newTestManager(t), newTestManager(t)
		if open {
			a.Open(2)
			b.Open(2)
		}
		if got, want := a.CanFinish(2), b.Finish(2); (got == nil) != (want == nil) {
			t.Errorf("open=%v: CanFinish=%v but Finish=%v", open, got, want)
		}
	}
}
