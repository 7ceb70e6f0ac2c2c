package workload

import "github.com/conzone/conzone/internal/sim"

// ByteZoned is the byte-addressed zoned surface the zone-burst writer
// drives; *conzone.Device has it.
type ByteZoned interface {
	Write(off int64, data []byte) error
	ResetZone(zone int) error
	ZoneBytes() int64
	NumZones() int
}

// ZoneBurstBytes is the per-step burst size: 48 KiB, the paper's Fig. 6(b)
// write size, deliberately smaller than the 96 KiB programming unit.
const ZoneBurstBytes = 48 << 10

// ZoneBurst drives sustained random writes through a byte-addressed zoned
// device: each step picks a pseudo-random zone from a working set and
// appends one sub-programming-unit burst at its write pointer, resetting the
// zone once full. Sub-PU bursts detour through SLC staging, zone alternation
// evicts write buffers prematurely, and resets invalidate staged data — so a
// long run exercises exactly the machinery (staging fill, GC migration, WAF
// climb) the virtual-time series is meant to expose. The stream is a pure
// function of the device geometry and the working-set size.
type ZoneBurst struct {
	dev  ByteZoned
	base int     // first zone of the working set
	offs []int64 // next write offset per working-set zone
	buf  []byte
	rng  *sim.Rand
}

// NewZoneBurst builds a writer over a working set of up to zones zones taken
// from the upper half of the LBA space, clear of any conventional zones at
// the front. An even count keeps both write buffers (zone mod 2) in play.
func NewZoneBurst(dev ByteZoned, zones int) *ZoneBurst {
	base := dev.NumZones() / 2
	if base+zones > dev.NumZones() {
		zones = dev.NumZones() - base
	}
	return &ZoneBurst{
		dev:  dev,
		base: base,
		offs: make([]int64, zones),
		buf:  make([]byte, ZoneBurstBytes),
		rng:  sim.NewRand(0),
	}
}

// Zones returns the working-set size.
func (w *ZoneBurst) Zones() int { return len(w.offs) }

// Step performs one random-zone burst, resetting the zone first when the
// burst no longer fits.
func (w *ZoneBurst) Step() error {
	i := int(w.rng.Uint64() % uint64(len(w.offs)))
	zb := w.dev.ZoneBytes()
	if w.offs[i]+ZoneBurstBytes > zb {
		if err := w.dev.ResetZone(w.base + i); err != nil {
			return err
		}
		w.offs[i] = 0
	}
	if err := w.dev.Write(int64(w.base+i)*zb+w.offs[i], w.buf); err != nil {
		return err
	}
	w.offs[i] += ZoneBurstBytes
	return nil
}
