package zns

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func newTestManager(t *testing.T) *Manager {
	t.Helper()
	m, err := NewManager(Config{NumZones: 8, ZoneSize: 4096, ZoneCapacity: 4032, MaxOpen: 4, MaxActive: 6})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewManagerValidation(t *testing.T) {
	bad := []Config{
		{NumZones: 0, ZoneSize: 10, ZoneCapacity: 10},
		{NumZones: 1, ZoneSize: 0, ZoneCapacity: 0},
		{NumZones: 1, ZoneSize: 10, ZoneCapacity: 0},
		{NumZones: 1, ZoneSize: 10, ZoneCapacity: 11},
		{NumZones: 1, ZoneSize: 10, ZoneCapacity: 10, MaxOpen: -1},
		{NumZones: 1, ZoneSize: 10, ZoneCapacity: 10, MaxOpen: 5, MaxActive: 3},
	}
	for i, cfg := range bad {
		if _, err := NewManager(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestInitialState(t *testing.T) {
	m := newTestManager(t)
	if m.NumZones() != 8 || m.ZoneSize() != 4096 || m.ZoneCapacity() != 4032 {
		t.Error("dimensions wrong")
	}
	if m.TotalLBAs() != 8*4096 {
		t.Errorf("TotalLBAs = %d", m.TotalLBAs())
	}
	for _, z := range m.Report() {
		if z.State != Empty || z.WP != z.Start || z.Written() != 0 || z.Remaining() != 4032 {
			t.Errorf("zone %d not pristine: %+v", z.ID, z)
		}
	}
}

func TestZoneOf(t *testing.T) {
	m := newTestManager(t)
	cases := []struct {
		lba  int64
		want int
	}{{0, 0}, {4095, 0}, {4096, 1}, {8 * 4096, -1}, {-1, -1}}
	for _, c := range cases {
		if got := m.ZoneOf(c.lba); got != c.want {
			t.Errorf("ZoneOf(%d) = %d, want %d", c.lba, got, c.want)
		}
	}
}

func TestZoneAccessor(t *testing.T) {
	m := newTestManager(t)
	z, err := m.Zone(3)
	if err != nil || z.ID != 3 || z.Start != 3*4096 {
		t.Errorf("Zone(3) = %+v, %v", z, err)
	}
	if _, err := m.Zone(8); !errors.Is(err, ErrInvalidZone) {
		t.Error("out-of-range id accepted")
	}
	if _, err := m.Zone(-1); !errors.Is(err, ErrInvalidZone) {
		t.Error("negative id accepted")
	}
}

func TestSequentialWriteLifecycle(t *testing.T) {
	m := newTestManager(t)
	if err := m.CommitWrite(0, 100); err != nil {
		t.Fatal(err)
	}
	z, _ := m.Zone(0)
	if z.State != ImplicitOpen || z.WP != 100 {
		t.Errorf("after write: %+v", z)
	}
	// Write at the WP continues; write elsewhere fails.
	if err := m.CommitWrite(100, 100); err != nil {
		t.Fatal(err)
	}
	if err := m.CommitWrite(50, 10); !errors.Is(err, ErrNotAtWritePointer) {
		t.Errorf("unaligned write error = %v", err)
	}
	// Fill the zone exactly to capacity -> Full.
	z, _ = m.Zone(0)
	if err := m.CommitWrite(z.WP, z.Remaining()); err != nil {
		t.Fatal(err)
	}
	z, _ = m.Zone(0)
	if z.State != Full {
		t.Errorf("state = %v, want FULL", z.State)
	}
	if err := m.CommitWrite(z.WP, 1); !errors.Is(err, ErrZoneFull) {
		t.Errorf("write to full zone error = %v", err)
	}
}

func TestWriteBoundary(t *testing.T) {
	m := newTestManager(t)
	// Write crossing the capacity must be rejected.
	if err := m.CommitWrite(0, 4033); !errors.Is(err, ErrBoundary) {
		t.Errorf("boundary error = %v", err)
	}
	// Writing into the non-capacity gap (between cap and size) fails too.
	if err := m.CommitWrite(4032, 1); !errors.Is(err, ErrNotAtWritePointer) {
		t.Errorf("gap write error = %v", err)
	}
}

func TestWriteRejectsBadArgs(t *testing.T) {
	m := newTestManager(t)
	if _, err := m.ValidateWrite(0, 0); err == nil {
		t.Error("zero-length write accepted")
	}
	if _, err := m.ValidateWrite(-5, 1); !errors.Is(err, ErrInvalidZone) {
		t.Error("negative lba accepted")
	}
	if _, err := m.ValidateWrite(m.TotalLBAs(), 1); !errors.Is(err, ErrInvalidZone) {
		t.Error("lba beyond namespace accepted")
	}
}

func TestOpenLimit(t *testing.T) {
	m := newTestManager(t) // MaxOpen = 4
	for i := 0; i < 4; i++ {
		if err := m.CommitWrite(int64(i)*4096, 8); err != nil {
			t.Fatal(err)
		}
	}
	if len(m.OpenZones()) != 4 {
		t.Fatalf("open zones = %v", m.OpenZones())
	}
	err := m.CommitWrite(4*4096, 8)
	if !errors.Is(err, ErrTooManyOpenZones) {
		t.Errorf("5th open error = %v", err)
	}
	// Closing one makes room.
	if err := m.Close(0); err != nil {
		t.Fatal(err)
	}
	if err := m.CommitWrite(4*4096, 8); err != nil {
		t.Errorf("write after close failed: %v", err)
	}
}

func TestActiveLimit(t *testing.T) {
	m, err := NewManager(Config{NumZones: 8, ZoneSize: 64, ZoneCapacity: 64, MaxOpen: 2, MaxActive: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Open zone 0 and 1, close them (still active), open 2 (third active).
	for i := 0; i < 2; i++ {
		if err := m.CommitWrite(int64(i)*64, 8); err != nil {
			t.Fatal(err)
		}
		if err := m.Close(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.CommitWrite(2*64, 8); err != nil {
		t.Fatal(err)
	}
	// A fourth active zone exceeds MaxActive.
	if err := m.CommitWrite(3*64, 8); !errors.Is(err, ErrTooManyActive) {
		t.Errorf("4th active error = %v", err)
	}
	// Re-opening a closed zone does not take a new active slot.
	if err := m.CommitWrite(8, 8); err != nil {
		t.Errorf("closed zone reopen failed: %v", err)
	}
}

func TestExplicitOpenClose(t *testing.T) {
	m := newTestManager(t)
	if err := m.Open(2); err != nil {
		t.Fatal(err)
	}
	z, _ := m.Zone(2)
	if z.State != ExplicitOpen {
		t.Errorf("state = %v", z.State)
	}
	if err := m.Open(2); err != nil {
		t.Error("re-open of open zone should be idempotent")
	}
	// Closing an explicit-open zone with nothing written returns to Empty.
	if err := m.Close(2); err != nil {
		t.Fatal(err)
	}
	z, _ = m.Zone(2)
	if z.State != Empty {
		t.Errorf("empty-close state = %v", z.State)
	}
	// Close of a non-open, non-closed zone errors.
	if err := m.Close(3); !errors.Is(err, ErrNotOpen) {
		t.Errorf("close empty error = %v", err)
	}
	if err := m.Close(99); !errors.Is(err, ErrInvalidZone) {
		t.Error("bad id accepted")
	}
}

func TestOpenFullZoneFails(t *testing.T) {
	m := newTestManager(t)
	if err := m.Finish(0); err != nil {
		t.Fatal(err)
	}
	if err := m.Open(0); !errors.Is(err, ErrZoneFull) {
		t.Errorf("open full error = %v", err)
	}
}

func TestFinish(t *testing.T) {
	m := newTestManager(t)
	if err := m.CommitWrite(0, 100); err != nil {
		t.Fatal(err)
	}
	if err := m.Finish(0); err != nil {
		t.Fatal(err)
	}
	z, _ := m.Zone(0)
	if z.State != Full {
		t.Errorf("state = %v", z.State)
	}
	if err := m.Finish(0); err != nil {
		t.Error("finish of full zone should be idempotent")
	}
	if err := m.Finish(42); !errors.Is(err, ErrInvalidZone) {
		t.Error("bad id accepted")
	}
}

func TestReset(t *testing.T) {
	m := newTestManager(t)
	if err := m.CommitWrite(0, 500); err != nil {
		t.Fatal(err)
	}
	if err := m.Reset(0); err != nil {
		t.Fatal(err)
	}
	z, _ := m.Zone(0)
	if z.State != Empty || z.WP != 0 {
		t.Errorf("after reset: %+v", z)
	}
	// Zone is writable from the start again.
	if err := m.CommitWrite(0, 8); err != nil {
		t.Errorf("write after reset: %v", err)
	}
	if err := m.Reset(-2); !errors.Is(err, ErrInvalidZone) {
		t.Error("bad id accepted")
	}
}

func TestValidateRead(t *testing.T) {
	m := newTestManager(t)
	if id, err := m.ValidateRead(0, 8); err != nil || id != 0 {
		t.Errorf("read = %d, %v", id, err)
	}
	// Reading past WP is allowed (returns zeros at device level).
	if _, err := m.ValidateRead(4000, 8); err != nil {
		t.Errorf("read past WP: %v", err)
	}
	if _, err := m.ValidateRead(4090, 10); !errors.Is(err, ErrBoundary) {
		t.Error("cross-zone read accepted")
	}
	if _, err := m.ValidateRead(0, 0); err == nil {
		t.Error("zero-length read accepted")
	}
	if _, err := m.ValidateRead(-1, 8); !errors.Is(err, ErrInvalidZone) {
		t.Error("negative lba accepted")
	}
}

func TestStateStrings(t *testing.T) {
	for s, want := range map[State]string{
		Empty: "EMPTY", ImplicitOpen: "IMPLICIT_OPEN", ExplicitOpen: "EXPLICIT_OPEN",
		Closed: "CLOSED", Full: "FULL",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
	if !strings.Contains(State(99).String(), "99") {
		t.Error("unknown state string")
	}
}

// Property: for any sequence of valid-length writes to random zones, the
// write pointer never exceeds capacity, never regresses, and open zones
// never exceed the configured limit.
func TestZoneInvariantsProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		m, err := NewManager(Config{NumZones: 4, ZoneSize: 128, ZoneCapacity: 100, MaxOpen: 2, MaxActive: 3})
		if err != nil {
			return false
		}
		for _, op := range ops {
			zid := int(op) % 4
			n := int64(op%32) + 1
			z, _ := m.Zone(zid)
			_ = m.CommitWrite(z.WP, n) // may fail; invariants must hold anyway
			if len(m.OpenZones()) > 2 {
				return false
			}
			for _, zz := range m.Report() {
				if zz.WP < zz.Start || zz.WP > zz.Start+zz.Capacity {
					return false
				}
				if zz.State == Full && zz.WP != zz.Start+zz.Capacity {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNoLimits(t *testing.T) {
	m, err := NewManager(Config{NumZones: 16, ZoneSize: 64, ZoneCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := m.CommitWrite(int64(i)*64, 4); err != nil {
			t.Fatalf("zone %d: %v", i, err)
		}
	}
	if got := len(m.OpenZones()); got != 16 {
		t.Errorf("open zones = %d", got)
	}
}

// BenchmarkValidateRead measures the zone check of a random 4 KiB read over
// the paper's zone table (96 zones of 4096 sectors), at LBAs drawn by a
// seeded xorshift.
func BenchmarkValidateRead(b *testing.B) {
	const zones, zoneSectors = 96, 4096
	m, err := NewManager(Config{NumZones: zones, ZoneSize: zoneSectors, ZoneCapacity: zoneSectors})
	if err != nil {
		b.Fatal(err)
	}
	x := uint64(0x5EED)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		id, err := m.ValidateRead(int64(x%(zones*zoneSectors)), 1)
		if err != nil {
			b.Fatal(err)
		}
		zoneSink += id
	}
}

// zoneSink keeps the benchmarked checks' results live.
var zoneSink int
