package host

import (
	"bytes"
	"errors"
	"testing"

	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
)

// viewBackend lends its views to ReadInto, as a device does: the same
// backing bytes on every call. Every other Backend method is unused here.
type viewBackend struct {
	Backend
	views [][]byte
	lat   sim.Duration
	err   error
}

func (b *viewBackend) ReadInto(at sim.Time, lba, n int64, dst [][]byte) (sim.Time, error) {
	copy(dst, b.views[lba:lba+n])
	return at.Add(b.lat), b.err
}

// TestReadPool pins the pool's ownership contract: a completion's Data is a
// copy that outlives the device's views, a read that carries nothing hands
// its container straight back, a Dst read lands flat with unwritten sectors
// cleared, and recycled buffers are reused.
func TestReadPool(t *testing.T) {
	sector := func(b byte) []byte { return bytes.Repeat([]byte{b}, int(units.Sector)) }
	be := &viewBackend{views: [][]byte{sector(0xA1), nil, sector(0xC3)}, lat: 5}
	var p readPool

	data, done, err := p.read(be, 100, 0, 3, nil)
	if err != nil || done != 105 || len(data) != 3 || data[1] != nil {
		t.Fatalf("read: %d entries, done %d, err %v", len(data), done, err)
	}
	copy(be.views[0], sector(0xEE)) // the device reuses its bytes
	if data[0][0] != 0xA1 || data[2][0] != 0xC3 || &data[0][0] == &be.views[0][0] {
		t.Fatal("completion data aliases the device's views")
	}
	pooled := map[*byte]bool{&data[0][0]: true, &data[2][0]: true}
	p.recycle(data)
	if len(p.bufs) != 2 || len(p.conts) != 1 {
		t.Fatalf("recycle pooled %d buffers and %d containers, want 2 and 1", len(p.bufs), len(p.conts))
	}
	again, _, _ := p.read(be, 0, 0, 1, nil)
	if !pooled[&again[0][0]] {
		t.Error("a read after recycle allocated a fresh sector buffer")
	}
	p.recycle(again)

	conts := len(p.conts)
	if data, _, _ := p.read(be, 0, 1, 1, nil); data != nil || len(p.conts) != conts {
		t.Fatalf("a read of an unwritten sector carried %d entries, pooled containers %d → %d", len(data), conts, len(p.conts))
	}

	be.err, be.lat = errors.New("media"), -50
	if data, done, err := p.read(be, 100, 0, 3, nil); data != nil || done != 100 || err != be.err {
		t.Fatalf("failed read: data %v, done %d, err %v", data != nil, done, err)
	}
	be.err = nil

	dst := bytes.Repeat([]byte{0xFF}, 3*int(units.Sector))
	if data, _, err := p.read(be, 0, 0, 3, dst); data != nil || err != nil {
		t.Fatalf("Dst read: data %v, err %v", data != nil, err)
	}
	want := append(append(sector(0xEE), make([]byte, units.Sector)...), sector(0xC3)...)
	if !bytes.Equal(dst, want) {
		t.Fatal("Dst read did not land the sectors flat with the unwritten one cleared")
	}
}

// BenchmarkReadPool is one data-carrying single-sector read through the
// pool and the reaper's Recycle: container, copy-out and return.
func BenchmarkReadPool(b *testing.B) {
	be := &viewBackend{views: [][]byte{make([]byte, units.Sector)}}
	var p readPool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, _, _ := p.read(be, sim.Time(i), 0, 1, nil)
		p.recycle(data)
	}
}
