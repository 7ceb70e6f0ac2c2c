package host

import (
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
)

// readPool owns read data across the host boundary. The backend fills a
// container with views borrowed from the device, valid only until its next
// call; the pool copies them out at once, into the request's Dst or into
// pooled sector buffers, so a completion's Data outlives any later dispatch.
// Recycle hands reaped Data back, keeping the read path allocation-free.
type readPool struct {
	bufs  [][]byte   // recycled sector buffers
	conts [][][]byte // recycled containers
}

// read runs one read on the backend at its dispatch instant and returns the
// completion's Data (nil when it carries none), done no earlier than at,
// and the backend's error.
func (p *readPool) read(be Backend, at sim.Time, lba, n int64, dst []byte) ([][]byte, sim.Time, error) {
	data := p.container(int(n))
	done, err := be.ReadInto(at, lba, n, data)
	carries := false
	if err == nil && dst != nil {
		flatten(dst, data)
	} else if err == nil {
		for i, v := range data {
			if v != nil {
				b := p.sectorBuf()
				copy(b, v)
				data[i] = b
				carries = true
			}
		}
	}
	if !carries {
		// A failed read, one delivered into Dst, or one covering only
		// unwritten sectors (which read back as zeros) carries no payload:
		// the container returns now, so the reaper has nothing to Recycle.
		p.conts = append(p.conts, data[:0])
		data = nil
	}
	return data, max(done, at), err
}

// flatten is the flat read delivery: each borrowed view is copied into its
// sector of dst and the sectors without one are cleared, so dst needs no
// zeroing beforehand and the bytes are copied exactly once.
func flatten(dst []byte, views [][]byte) {
	for i, v := range views {
		slot := dst[int64(i)*units.Sector : int64(i+1)*units.Sector]
		if v == nil {
			clear(slot)
		} else {
			copy(slot, v)
		}
	}
}

// recycle takes back a completion's Data: its sector buffers and container.
func (p *readPool) recycle(data [][]byte) {
	if data == nil {
		return
	}
	for i, b := range data {
		if int64(len(b)) == units.Sector {
			p.bufs = append(p.bufs, b)
		}
		data[i] = nil
	}
	p.conts = append(p.conts, data[:0])
}

// container returns an n-entry container with all entries nil, reusing a
// recycled one when available.
func (p *readPool) container(n int) [][]byte {
	if k := len(p.conts); k > 0 {
		d := p.conts[k-1]
		p.conts[k-1] = nil
		p.conts = p.conts[:k-1]
		if cap(d) >= n {
			d = d[:n]
			clear(d)
			return d
		}
	}
	return make([][]byte, n)
}

// sectorBuf returns a sector-sized buffer, reusing a recycled one when
// available.
func (p *readPool) sectorBuf() []byte {
	if k := len(p.bufs); k > 0 {
		b := p.bufs[k-1]
		p.bufs[k-1] = nil
		p.bufs = p.bufs[:k-1]
		return b
	}
	return make([]byte, units.Sector)
}
