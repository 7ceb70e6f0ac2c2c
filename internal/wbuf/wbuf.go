// Package wbuf models the limited volatile write buffers of consumer-grade
// zoned flash storage (paper §II-B, §III-B). A device has only a few
// buffers — ConZone's reference configuration has two of one superpage
// (384 KiB) each — shared by all open zones through modulo mapping:
// buffer(zone) = zone mod nbuf. When the host switches to a zone whose
// buffer is occupied by another zone, the occupant's data must be flushed
// prematurely, which is the central write-path pathology the paper studies
// (Fig. 6(b)).
//
// The manager only holds and hands back data; flush routing (direct program
// vs SLC staging vs combine) is the FTL's job.
//
// # Payload retention and Flush lifetime
//
// Buffers hold references to the host's payload slices — nothing is copied
// on append. A payload buffer passed to Append is therefore retained by the
// device until its data reaches media (the flush consumes it), and the host
// must not modify it before then; this models DMA from pinned host memory.
//
// Flush objects and their Payloads containers are pooled: a *Flush returned
// by Append, Evict or Take is borrowed and valid only until the next
// mutating Manager call (Append, Evict, Take), which reclaims previously
// handed-out flushes for reuse. The FTL consumes every flush synchronously
// before touching the manager again, so steady-state draining allocates
// nothing.
package wbuf

import (
	"fmt"

	"github.com/conzone/conzone/internal/units"
)

// Reason says why a buffer was drained; the FTL's telemetry maps it to a
// lifecycle cause so premature flushes are attributable.
type Reason uint8

const (
	// ReasonFull: the buffer reached one superpage and drained normally.
	ReasonFull Reason = iota
	// ReasonEvict: another zone claimed the buffer (premature flush).
	ReasonEvict
	// ReasonTake: an explicit drain (sync write, zone finish/close, flush).
	ReasonTake
)

// String returns the reason's stable snake_case name.
func (r Reason) String() string {
	switch r {
	case ReasonFull:
		return "buffer_full"
	case ReasonEvict:
		return "zone_conflict"
	case ReasonTake:
		return "host_flush"
	}
	return fmt.Sprintf("reason_%d", uint8(r))
}

// Flush is the content evicted or drained from one buffer: a contiguous
// run of sectors belonging to a single zone.
type Flush struct {
	Zone     int
	StartLBA int64    // first logical sector of the run
	Payloads [][]byte // one per sector; entries may be nil
	Reason   Reason   // why the buffer drained
}

// Sectors returns the run length.
func (f *Flush) Sectors() int64 { return int64(len(f.Payloads)) }

// Stats counts buffer events. The FTL interprets Premature flushes.
type Stats struct {
	Appended  int64 // sectors accepted into buffers
	FullDrain int64 // flushes because a buffer reached capacity
	Evictions int64 // flushes because another zone claimed the buffer
	TakeDrain int64 // explicit drains (sync/close/finish)
	Restored  int64 // sectors returned to a buffer after a failed flush
	Trimmed   int64 // unacknowledged sectors dropped after a failed write
}

type buffer struct {
	zone     int // -1 when empty
	startLBA int64
	payloads [][]byte
}

// Manager owns the device's write buffers.
type Manager struct {
	bufs  []buffer
	cap   int64 // sectors per buffer (one superpage)
	stats Stats

	// occupied counts buffers currently holding payloads, so the read path
	// can skip the per-zone probe entirely while every buffer is empty —
	// the steady state of a read-only workload.
	occupied int

	// Flush recycling (see the package doc's lifetime contract): lent holds
	// flushes handed to the caller since the last mutating call; reclaim
	// moves them — container capacity and all — onto freeFlush for reuse.
	lent      []*Flush
	freeFlush []*Flush
	outFlush  []*Flush // Append's reused result slice
}

// New builds a manager with nbuf buffers of capSectors each.
func New(nbuf int, capSectors int64) (*Manager, error) {
	if nbuf <= 0 {
		return nil, fmt.Errorf("wbuf: need at least one buffer, got %d", nbuf)
	}
	if capSectors <= 0 {
		return nil, fmt.Errorf("wbuf: capacity must be positive, got %d sectors", capSectors)
	}
	m := &Manager{bufs: make([]buffer, nbuf), cap: capSectors}
	for i := range m.bufs {
		m.bufs[i].zone = -1
	}
	return m, nil
}

// Stats returns a snapshot of the event counters.
func (m *Manager) Stats() Stats { return m.stats }

// BufferIndex returns which buffer serves a zone (paper: "taking the modulo
// of the zone index with the total number of write buffers").
func (m *Manager) BufferIndex(zone int) int {
	if zone < 0 {
		return -1
	}
	return zone % len(m.bufs)
}

// Occupant returns the zone currently holding data in zone's buffer, or -1
// when the buffer is empty. A conflict exists when the occupant is a
// different zone.
func (m *Manager) Occupant(zone int) int {
	i := m.BufferIndex(zone)
	if i < 0 || len(m.bufs[i].payloads) == 0 {
		return -1
	}
	return m.bufs[i].zone
}

// Evict removes and returns the conflicting occupant's data so the FTL can
// flush it prematurely. It returns nil when there is no conflict. The
// returned flush is borrowed until the next mutating Manager call.
func (m *Manager) Evict(zone int) *Flush {
	m.reclaim()
	occ := m.Occupant(zone)
	if occ < 0 || occ == zone {
		return nil
	}
	m.stats.Evictions++
	return m.drain(m.BufferIndex(zone), ReasonEvict)
}

// reclaim recycles every flush handed out since the last mutating call.
// Runs at the top of each mutator: by the Flush lifetime contract the
// caller has consumed those flushes by now.
func (m *Manager) reclaim() {
	for i, f := range m.lent {
		f.Payloads = f.Payloads[:0]
		m.freeFlush = append(m.freeFlush, f)
		m.lent[i] = nil
	}
	m.lent = m.lent[:0]
}

func (m *Manager) drain(i int, why Reason) *Flush {
	b := &m.bufs[i]
	var f *Flush
	if n := len(m.freeFlush); n > 0 {
		f = m.freeFlush[n-1]
		m.freeFlush[n-1] = nil
		m.freeFlush = m.freeFlush[:n-1]
	} else {
		f = &Flush{}
	}
	f.Zone, f.StartLBA, f.Reason = b.zone, b.startLBA, why
	if len(b.payloads) > 0 {
		m.occupied--
	}
	// Swap containers: the flush takes the buffered run; the buffer takes
	// the recycled flush's empty container for the next run.
	f.Payloads, b.payloads = b.payloads, f.Payloads[:0]
	m.lent = append(m.lent, f)
	b.zone = -1
	b.startLBA = 0
	return f
}

// Append adds sectors of one zone's sequential write into its buffer and
// returns the full-buffer flushes this produces, in order. The caller must
// have resolved any conflict with Evict first. Within a zone, appends must
// be logically contiguous (ZNS guarantees writes at the write pointer).
// Payload entries are retained by reference until flushed to media (see the
// package doc); the returned flushes and the slice holding them are
// borrowed until the next mutating Manager call.
func (m *Manager) Append(zone int, lba int64, payloads [][]byte) ([]*Flush, error) {
	m.reclaim()
	if zone < 0 {
		return nil, fmt.Errorf("wbuf: negative zone %d", zone)
	}
	if len(payloads) == 0 {
		return nil, nil
	}
	for _, p := range payloads {
		if p != nil && int64(len(p)) != units.Sector {
			return nil, fmt.Errorf("wbuf: payload must be %d bytes, got %d", units.Sector, len(p))
		}
	}
	i := m.BufferIndex(zone)
	b := &m.bufs[i]
	if len(b.payloads) > 0 {
		if b.zone != zone {
			return nil, fmt.Errorf("wbuf: buffer %d occupied by zone %d; evict before writing zone %d",
				i, b.zone, zone)
		}
		if lba != b.startLBA+int64(len(b.payloads)) {
			return nil, fmt.Errorf("wbuf: zone %d append at %d, buffered run ends at %d",
				zone, lba, b.startLBA+int64(len(b.payloads)))
		}
	} else {
		b.zone = zone
		b.startLBA = lba
	}

	out := m.outFlush[:0]
	for len(payloads) > 0 {
		// Take what fits before the buffer fills, and at least one sector:
		// a Restore may have left it at or above capacity.
		k := min(int64(len(payloads)), max(m.cap-int64(len(b.payloads)), 1))
		if len(b.payloads) == 0 {
			m.occupied++
		}
		b.payloads = append(b.payloads, payloads[:k]...)
		payloads = payloads[k:]
		m.stats.Appended += k
		if int64(len(b.payloads)) >= m.cap {
			m.stats.FullDrain++
			f := m.drain(i, ReasonFull)
			out = append(out, f)
			// Subsequent sectors of this call continue the run.
			b.zone = zone
			b.startLBA = f.StartLBA + int64(len(f.Payloads))
		}
	}
	if len(b.payloads) == 0 {
		b.zone = -1
		b.startLBA = 0
	}
	m.outFlush = out
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// Restore returns a failed flush's un-landed sectors to the zone's buffer.
// When the FTL cannot place a drained run on media (grown bad blocks,
// staging exhaustion), the sectors were already acknowledged to the host and
// must not vanish: restored, they stay readable through the buffer and a
// later flush retries them. The restored run must start a fresh buffer,
// immediately precede, or immediately continue the run currently buffered
// for the same zone. Restoring may leave the buffer above its capacity; the
// next drain empties the whole oversized run at once.
//
// Restore does not reclaim handed-out flushes: it is called while the failed
// flush is still borrowed, and the payload references are copied into the
// buffer's own container before any later mutator recycles the flush.
func (m *Manager) Restore(zone int, startLBA int64, payloads [][]byte) error {
	if zone < 0 {
		return fmt.Errorf("wbuf: negative zone %d", zone)
	}
	if len(payloads) == 0 {
		return nil
	}
	for _, p := range payloads {
		if p != nil && int64(len(p)) != units.Sector {
			return fmt.Errorf("wbuf: restored payload must be %d bytes, got %d", units.Sector, len(p))
		}
	}
	b := &m.bufs[m.BufferIndex(zone)]
	n := int64(len(payloads))
	switch {
	case len(b.payloads) == 0:
		b.zone = zone
		b.startLBA = startLBA
		b.payloads = append(b.payloads, payloads...)
		m.occupied++
	case b.zone == zone && b.startLBA == startLBA+n:
		// The restored run ends where the buffered run begins: prepend.
		old := int64(len(b.payloads))
		b.payloads = append(b.payloads, payloads...)
		copy(b.payloads[n:], b.payloads[:old])
		copy(b.payloads, payloads)
		b.startLBA = startLBA
	case b.zone == zone && startLBA == b.startLBA+int64(len(b.payloads)):
		b.payloads = append(b.payloads, payloads...)
	default:
		return fmt.Errorf("wbuf: cannot restore zone %d run at %d: buffer %d holds zone %d at %d",
			zone, startLBA, m.BufferIndex(zone), b.zone, b.startLBA)
	}
	m.stats.Restored += n
	return nil
}

// TrimFrom discards the zone's buffered sectors at or beyond lba and
// returns how many were dropped. The FTL uses it to roll a failed host
// write back out of the buffer: unlike the acknowledged sectors Restore
// protects, the failing request's own sectors were never acknowledged, so
// dropping them loses nothing the host was promised.
func (m *Manager) TrimFrom(zone int, lba int64) int64 {
	start, n := m.Buffered(zone)
	if n == 0 || lba >= start+n {
		return 0
	}
	b := &m.bufs[m.BufferIndex(zone)]
	keep := lba - start
	if keep < 0 {
		keep = 0
	}
	dropped := int64(len(b.payloads)) - keep
	for i := keep; i < int64(len(b.payloads)); i++ {
		b.payloads[i] = nil
	}
	b.payloads = b.payloads[:keep]
	if keep == 0 {
		b.zone = -1
		b.startLBA = 0
		if dropped > 0 {
			m.occupied--
		}
	}
	m.stats.Trimmed += dropped
	return dropped
}

// Take drains the zone's buffered data for an explicit flush (synchronous
// write completion, zone finish/close, device flush). Returns nil when the
// zone has nothing buffered. The returned flush is borrowed until the next
// mutating Manager call.
func (m *Manager) Take(zone int) *Flush {
	m.reclaim()
	occ := m.Occupant(zone)
	if occ != zone {
		return nil
	}
	m.stats.TakeDrain++
	return m.drain(m.BufferIndex(zone), ReasonTake)
}

// Buffered returns the run currently buffered for the zone (start LBA and
// sector count); sectors == 0 when nothing is buffered.
func (m *Manager) Buffered(zone int) (startLBA, sectors int64) {
	occ := m.Occupant(zone)
	if occ != zone {
		return 0, 0
	}
	b := &m.bufs[m.BufferIndex(zone)]
	return b.startLBA, int64(len(b.payloads))
}

// Run describes one occupied buffer for diagnostics and auditing.
type Run struct {
	Buffer   int
	Zone     int
	StartLBA int64
	Sectors  int64
}

// Runs returns the currently buffered runs, one per occupied buffer, in
// buffer order.
func (m *Manager) Runs() []Run {
	var out []Run
	for i := range m.bufs {
		b := &m.bufs[i]
		if len(b.payloads) == 0 {
			continue
		}
		out = append(out, Run{Buffer: i, Zone: b.zone, StartLBA: b.startLBA, Sectors: int64(len(b.payloads))})
	}
	return out
}

// BufferedSectors returns the total sectors held across all buffers.
func (m *Manager) BufferedSectors() int64 {
	var n int64
	for i := range m.bufs {
		n += int64(len(m.bufs[i].payloads))
	}
	return n
}

// ReadSector serves a read hit from the buffer: the payload of the sector
// at lba if it is currently buffered for the zone. The second result is
// false when the sector is not in the buffer.
func (m *Manager) ReadSector(zone int, lba int64) ([]byte, bool) {
	if m.occupied == 0 {
		return nil, false
	}
	start, n := m.Buffered(zone)
	if n == 0 || lba < start || lba >= start+n {
		return nil, false
	}
	return m.bufs[m.BufferIndex(zone)].payloads[lba-start], true
}
