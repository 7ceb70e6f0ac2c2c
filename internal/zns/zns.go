// Package zns implements the zoned-namespace abstraction the host sees:
// fixed-size zones with write pointers, a zone state machine, and
// open/active resource limits. Sizes and offsets are in 4 KiB sectors, the
// device's logical block size.
//
// The package is host-facing policy only; it knows nothing about flash. The
// FTL consumes its validation results and drives state transitions.
package zns

import (
	"errors"
	"fmt"
	"math/bits"
)

// State is the condition of a zone, following the NVMe ZNS state machine.
type State int

// Zone states. Consumer zoned storage does not expose the
// explicit/implicit open distinction to F2FS, but the emulator keeps it for
// NVMe fidelity.
const (
	Empty State = iota
	ImplicitOpen
	ExplicitOpen
	Closed
	Full
)

// String names the state as in NVMe ZNS.
func (s State) String() string {
	switch s {
	case Empty:
		return "EMPTY"
	case ImplicitOpen:
		return "IMPLICIT_OPEN"
	case ExplicitOpen:
		return "EXPLICIT_OPEN"
	case Closed:
		return "CLOSED"
	case Full:
		return "FULL"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// open reports whether the state counts against the open-zone limit.
func (s State) open() bool { return s == ImplicitOpen || s == ExplicitOpen }

// active reports whether the state counts against the active-zone limit.
func (s State) active() bool { return s.open() || s == Closed }

// Errors returned by write/management validation. They mirror the NVMe ZNS
// status codes the real device would return.
var (
	ErrInvalidZone       = errors.New("zns: zone id out of range")
	ErrNotAtWritePointer = errors.New("zns: write does not begin at the zone's write pointer")
	ErrZoneFull          = errors.New("zns: zone is full")
	ErrBoundary          = errors.New("zns: write crosses the zone capacity")
	ErrTooManyOpenZones  = errors.New("zns: open zone limit exceeded")
	ErrTooManyActive     = errors.New("zns: active zone limit exceeded")
	ErrNotOpen           = errors.New("zns: zone is not open")
	ErrConventional      = errors.New("zns: operation not supported on a conventional zone")
)

// Type distinguishes sequential-write-required zones from conventional
// zones, which allow in-place updates at any offset (the paper's §III-E:
// consumer devices need some conventional zones for F2FS metadata).
type Type int

// Zone types.
const (
	SequentialWriteRequired Type = iota
	Conventional
)

// String names the type as in NVMe ZNS.
func (t Type) String() string {
	if t == Conventional {
		return "CONVENTIONAL"
	}
	return "SEQ_WRITE_REQUIRED"
}

// Zone is the host-visible descriptor of one zone.
type Zone struct {
	ID       int
	Type     Type
	Start    int64 // first LBA (sector) of the zone
	Size     int64 // LBA span of the zone (power of two per NVMe)
	Capacity int64 // writable sectors, Capacity <= Size
	WP       int64 // write pointer as an absolute LBA (sequential zones)
	State    State
}

// Written returns the number of sectors written since the last reset.
func (z Zone) Written() int64 { return z.WP - z.Start }

// Manager owns the zone table and enforces the state machine.
type Manager struct {
	zones     []Zone
	zoneSize  int64 // sectors
	zoneCap   int64 // sectors
	maxOpen   int
	maxActive int

	// Running resource counters, maintained by setState at every
	// transition so the limit checks on the write hot path and the
	// telemetry gauges stay O(1) instead of rescanning the zone table.
	nOpen   int
	nActive int

	// Translation fast path, derived once at construction: the namespace
	// size, and a shift replacing ZoneOf's division when the zone size is
	// a power of two.
	total  int64
	zShift uint
	zPow2  bool
}

// Config sizes a manager. MaxOpen/MaxActive of 0 mean "no limit", with one
// normalization: every open zone holds active resources, so MaxOpen=0
// combined with MaxActive>0 would promise more open zones than the device
// can keep active. NewManager clamps the effective open limit to MaxActive
// in that case.
type Config struct {
	NumZones     int
	ZoneSize     int64 // sectors; the LBA stride between zones
	ZoneCapacity int64 // sectors; writable span, <= ZoneSize
	MaxOpen      int
	MaxActive    int
	// Conventional makes the first N zones conventional: in-place
	// updatable, no write pointer, no reset, exempt from open limits.
	Conventional int
}

// NewManager builds a zone table with every zone empty.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.NumZones <= 0 {
		return nil, fmt.Errorf("zns: NumZones must be positive, got %d", cfg.NumZones)
	}
	if cfg.ZoneSize <= 0 {
		return nil, fmt.Errorf("zns: ZoneSize must be positive, got %d", cfg.ZoneSize)
	}
	if cfg.ZoneCapacity <= 0 || cfg.ZoneCapacity > cfg.ZoneSize {
		return nil, fmt.Errorf("zns: ZoneCapacity %d must be in (0, ZoneSize=%d]", cfg.ZoneCapacity, cfg.ZoneSize)
	}
	if cfg.MaxOpen < 0 || cfg.MaxActive < 0 {
		return nil, fmt.Errorf("zns: negative zone limits")
	}
	if cfg.MaxActive > 0 && cfg.MaxOpen > cfg.MaxActive {
		return nil, fmt.Errorf("zns: MaxOpen %d exceeds MaxActive %d", cfg.MaxOpen, cfg.MaxActive)
	}
	if cfg.Conventional < 0 || cfg.Conventional > cfg.NumZones {
		return nil, fmt.Errorf("zns: Conventional %d out of [0,%d]", cfg.Conventional, cfg.NumZones)
	}
	maxOpen := cfg.MaxOpen
	if cfg.MaxActive > 0 && maxOpen == 0 {
		// "Unlimited open" under a finite active limit is contradictory:
		// an open zone is an active zone. Clamp to the active limit.
		maxOpen = cfg.MaxActive
	}
	m := &Manager{zoneSize: cfg.ZoneSize, zoneCap: cfg.ZoneCapacity, maxOpen: maxOpen, maxActive: cfg.MaxActive}
	m.total = int64(cfg.NumZones) * cfg.ZoneSize
	if cfg.ZoneSize&(cfg.ZoneSize-1) == 0 {
		m.zPow2 = true
		m.zShift = uint(bits.TrailingZeros64(uint64(cfg.ZoneSize)))
	}
	for i := 0; i < cfg.NumZones; i++ {
		start := int64(i) * cfg.ZoneSize
		t := SequentialWriteRequired
		if i < cfg.Conventional {
			t = Conventional
		}
		m.zones = append(m.zones, Zone{
			ID: i, Type: t, Start: start, Size: cfg.ZoneSize, Capacity: cfg.ZoneCapacity,
			WP: start, State: Empty,
		})
	}
	return m, nil
}

// NumZones returns the zone count.
func (m *Manager) NumZones() int { return len(m.zones) }

// TotalLBAs returns the namespace size in sectors.
func (m *Manager) TotalLBAs() int64 { return m.total }

// ZoneOf maps an LBA to its zone id, or -1 when out of range.
func (m *Manager) ZoneOf(lba int64) int {
	if lba < 0 || lba >= m.total {
		return -1
	}
	if m.zPow2 {
		return int(lba >> m.zShift)
	}
	return int(lba / m.zoneSize)
}

// Zone returns a copy of the descriptor for the given id.
func (m *Manager) Zone(id int) (Zone, error) {
	if id < 0 || id >= len(m.zones) {
		return Zone{}, ErrInvalidZone
	}
	return m.zones[id], nil
}

// Report returns copies of all zone descriptors, as in Report Zones.
func (m *Manager) Report() []Zone {
	out := make([]Zone, len(m.zones))
	copy(out, m.zones)
	return out
}

// OpenCount returns how many zones are currently open (telemetry gauge;
// O(1) from the running counters).
func (m *Manager) OpenCount() int { return m.nOpen }

// ActiveCount returns how many zones currently hold active resources
// (open or closed).
func (m *Manager) ActiveCount() int { return m.nActive }

// setState is the single place a zone's state changes, keeping the running
// open/active counters in lockstep with the table.
func (m *Manager) setState(z *Zone, s State) {
	if z.State.open() != s.open() {
		if s.open() {
			m.nOpen++
		} else {
			m.nOpen--
		}
	}
	if z.State.active() != s.active() {
		if s.active() {
			m.nActive++
		} else {
			m.nActive--
		}
	}
	z.State = s
}

// canTakeResources checks the open/active limits before a zone in state s
// transitions to an open state.
func (m *Manager) canTakeResources(s State) error {
	if !s.open() && m.maxOpen > 0 && m.nOpen >= m.maxOpen {
		return ErrTooManyOpenZones
	}
	if !s.active() && m.maxActive > 0 && m.nActive >= m.maxActive {
		return ErrTooManyActive
	}
	return nil
}

// ValidateWrite checks a write of n sectors starting at lba and returns the
// target zone id. It does not change any state; call CommitWrite after the
// FTL accepts the data.
func (m *Manager) ValidateWrite(lba, n int64) (int, error) {
	if n <= 0 {
		return -1, fmt.Errorf("zns: write of %d sectors", n)
	}
	id := m.ZoneOf(lba)
	if id < 0 {
		return -1, ErrInvalidZone
	}
	z := &m.zones[id]
	if z.State == Full {
		return id, ErrZoneFull
	}
	if z.Type == Conventional {
		// Conventional zones accept writes at any in-capacity offset and
		// never consume open/active resources.
		if lba+n > z.Start+z.Capacity {
			return id, fmt.Errorf("%w: zone %d cap ends at %d, write ends at %d",
				ErrBoundary, id, z.Start+z.Capacity, lba+n)
		}
		return id, nil
	}
	if lba != z.WP {
		return id, fmt.Errorf("%w: zone %d wp=%d got lba=%d", ErrNotAtWritePointer, id, z.WP, lba)
	}
	if lba+n > z.Start+z.Capacity {
		return id, fmt.Errorf("%w: zone %d cap ends at %d, write ends at %d", ErrBoundary, id, z.Start+z.Capacity, lba+n)
	}
	if z.State == Empty || z.State == Closed {
		if err := m.canTakeResources(z.State); err != nil {
			return id, err
		}
	}
	return id, nil
}

// AppendLBA returns the LBA a Zone Append of n sectors would be placed at:
// the zone's current write pointer. It validates the append exactly as
// ValidateWrite would validate the resulting write (state, capacity,
// open/active limits) without changing any state. Zone Append is the
// device-chooses-the-offset write of NVMe ZNS: the host names only the
// zone, and the assigned LBA is returned on completion, which is what lets
// multiple appends to one zone stay queued without write-pointer races.
func (m *Manager) AppendLBA(id int, n int64) (int64, error) {
	if id < 0 || id >= len(m.zones) {
		return -1, ErrInvalidZone
	}
	z := &m.zones[id]
	if z.Type == Conventional {
		return -1, ErrConventional
	}
	if _, err := m.ValidateWrite(z.WP, n); err != nil {
		return -1, err
	}
	return z.WP, nil
}

// CommitWrite advances the write pointer after a validated write and drives
// the implicit state transitions (Empty/Closed -> ImplicitOpen -> Full).
func (m *Manager) CommitWrite(lba, n int64) error {
	id, err := m.ValidateWrite(lba, n)
	if err != nil {
		return err
	}
	z := &m.zones[id]
	if z.Type == Conventional {
		return nil // no write pointer, no state transitions
	}
	if z.State == Empty || z.State == Closed {
		m.setState(z, ImplicitOpen)
	}
	z.WP += n
	if z.WP == z.Start+z.Capacity {
		m.setState(z, Full)
	}
	return nil
}

// Open explicitly opens a zone.
func (m *Manager) Open(id int) error {
	if id < 0 || id >= len(m.zones) {
		return ErrInvalidZone
	}
	z := &m.zones[id]
	if z.Type == Conventional {
		return ErrConventional
	}
	switch z.State {
	case ExplicitOpen:
		return nil
	case Full:
		return ErrZoneFull
	case Empty, Closed:
		if err := m.canTakeResources(z.State); err != nil {
			return err
		}
	}
	m.setState(z, ExplicitOpen)
	return nil
}

// CanClose validates the Close transition without changing any state, so
// the FTL can reject a close before it spends media time draining buffers.
// It returns nil exactly when Close would.
func (m *Manager) CanClose(id int) error {
	if id < 0 || id >= len(m.zones) {
		return ErrInvalidZone
	}
	z := &m.zones[id]
	if z.Type == Conventional {
		return ErrConventional
	}
	if !z.State.open() && z.State != Closed {
		return ErrNotOpen
	}
	return nil
}

// Close moves an open zone to Closed (it keeps its active resources). An
// open zone with nothing written returns to Empty, per NVMe.
func (m *Manager) Close(id int) error {
	if err := m.CanClose(id); err != nil {
		return err
	}
	z := &m.zones[id]
	if z.State == Closed {
		return nil
	}
	if z.WP == z.Start {
		m.setState(z, Empty)
	} else {
		m.setState(z, Closed)
	}
	return nil
}

// CanFinish validates the Finish transition without changing any state, so
// the FTL can reject a finish before charging any pad-out media time. It
// returns nil exactly when Finish would.
func (m *Manager) CanFinish(id int) error {
	if id < 0 || id >= len(m.zones) {
		return ErrInvalidZone
	}
	z := &m.zones[id]
	if z.Type == Conventional {
		return ErrConventional
	}
	if z.State == Empty {
		// Padding an empty zone transiently takes its resources; refuse a
		// finish the limits could not admit as a write.
		return m.canTakeResources(z.State)
	}
	return nil
}

// Finish forces a zone to Full. The write pointer moves to capacity: the
// FTL pads the unwritten remainder onto media before committing the
// transition, so a finished zone's fullness is a durable media fact, not a
// volatile flag (it recovers as Full after a power cut).
func (m *Manager) Finish(id int) error {
	if err := m.CanFinish(id); err != nil {
		return err
	}
	z := &m.zones[id]
	if z.State == Full {
		return nil
	}
	z.WP = z.Start + z.Capacity
	m.setState(z, Full)
	return nil
}

// Reset returns a zone to Empty with the write pointer at the start. The
// caller (FTL) erases the backing blocks.
func (m *Manager) Reset(id int) error {
	if id < 0 || id >= len(m.zones) {
		return ErrInvalidZone
	}
	z := &m.zones[id]
	if z.Type == Conventional {
		return ErrConventional
	}
	z.WP = z.Start
	m.setState(z, Empty)
	return nil
}

// Restore sets a sequential zone's write pointer directly during mount
// recovery, deriving the state from the pointer: at the start the zone is
// Empty, at capacity Full, anywhere between Closed. Open states are never
// restored — a power cut implicitly closes every open zone — and the
// open/active limits are not consulted: Closed zones hold active resources
// that the device cannot refuse to account for after a crash. An
// acknowledged Finish padded the zone to capacity on media, so it recovers
// as Full here; only a finish torn mid-pad-out (never acknowledged) comes
// back Closed at the pad's landed prefix.
func (m *Manager) Restore(id int, wp int64) error {
	if id < 0 || id >= len(m.zones) {
		return ErrInvalidZone
	}
	z := &m.zones[id]
	if z.Type == Conventional {
		return ErrConventional
	}
	if wp < z.Start || wp > z.Start+z.Capacity {
		return fmt.Errorf("zns: restore zone %d write pointer %d outside [%d,%d]", id, wp, z.Start, z.Start+z.Capacity)
	}
	z.WP = wp
	switch {
	case wp == z.Start:
		m.setState(z, Empty)
	case wp == z.Start+z.Capacity:
		m.setState(z, Full)
	default:
		m.setState(z, Closed)
	}
	return nil
}

// RestoreFull marks a zone Full during mount recovery, keeping whatever
// write pointer the media scan established. It backs the journaled-finish
// belt-and-braces: a durable MetaZoneFinish record proves the host was
// acknowledged, so the zone must not come back writable even if the pad
// extent were ever to disagree.
func (m *Manager) RestoreFull(id int) error {
	if id < 0 || id >= len(m.zones) {
		return ErrInvalidZone
	}
	z := &m.zones[id]
	if z.Type == Conventional {
		return ErrConventional
	}
	m.setState(z, Full)
	return nil
}

// ValidateRead checks a read of n sectors at lba. Reads may span the
// unwritten tail (the device returns zeros there) but not the namespace
// boundary, and a read must stay inside one zone's LBA range to keep the
// FTL's per-zone translation simple; the device layer splits larger reads.
func (m *Manager) ValidateRead(lba, n int64) (int, error) {
	if n <= 0 {
		return -1, fmt.Errorf("zns: read of %d sectors", n)
	}
	id := m.ZoneOf(lba)
	if id < 0 {
		return -1, ErrInvalidZone
	}
	z := &m.zones[id]
	if lba+n > z.Start+z.Size {
		return id, fmt.Errorf("%w: read crosses zone %d end", ErrBoundary, id)
	}
	return id, nil
}
