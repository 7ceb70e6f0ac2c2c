// Package femu models the FEMU emulator's ZNS mode as the paper
// characterises it (§II-C, Table I and §IV-B): write buffers are present,
// but there is no L2P cache or FTL cost model, no heterogeneous media, and
// no channel bandwidth model; and because FEMU runs inside a KVM guest,
// every host I/O carries tens of microseconds of virtualisation latency
// ("host/client switching"), which is what ruins its flash-scale read
// latencies. The package exists so Fig. 6(a)'s four-way comparison can be
// regenerated.
package femu

import (
	"fmt"

	"github.com/conzone/conzone/internal/nand"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
	"github.com/conzone/conzone/internal/zns"
)

// Params configures the FEMU personality.
type Params struct {
	// VMExitMin/Max bound the per-I/O virtualisation latency added to
	// every host command, drawn uniformly. The paper attributes
	// "indispensable latency fluctuations" of tens of microseconds to the
	// KVM host/guest switching.
	VMExitMin, VMExitMax sim.Duration
	Seed                 uint64
	MaxOpenZones         int
}

// Stats counts device activity.
type Stats struct {
	HostReadBytes    int64
	HostWrittenBytes int64
	PUPrograms       int64
	UnflushableTails int64 // flushes that found sub-unit data FEMU cannot drain
}

type zoneBuf struct {
	start    int64
	payloads [][]byte
	avail    sim.Time
}

// Device is the FEMU-like ZNS device: zone-linear placement with one write
// buffer per open zone (so no premature-flush machinery), an unthrottled
// channel, and VM-exit jitter on completions.
type Device struct {
	arr       *nand.Array
	zones     *zns.Manager
	chips     int // geo.Chips()
	firstNorm int // geo.FirstNormalBlock()
	rng       *sim.Rand
	params    Params
	puSectors int64
	sbSectors int64
	spp       int
	ppu       int
	bufs      map[int]*zoneBuf
	stats     Stats
	pages     nand.PageRuns // page batching of the current read
}

// New builds the device. The geometry's SLC region is ignored (FEMU has no
// heterogeneous media); its channel bandwidth is overridden to unlimited.
func New(geo nand.Geometry, lat nand.LatencyTable, p Params) (*Device, error) {
	if p.VMExitMin < 0 || p.VMExitMax < p.VMExitMin {
		return nil, fmt.Errorf("femu: bad VM exit latency range [%v,%v]", p.VMExitMin, p.VMExitMax)
	}
	geo.ChannelMiBps = 0 // the paper: FEMU cannot simulate channel bandwidth
	arr, err := nand.NewArray(geo, lat, sim.NewEngine())
	if err != nil {
		return nil, err
	}
	d := &Device{
		arr:       arr,
		chips:     geo.Chips(),
		firstNorm: geo.FirstNormalBlock(),
		rng:       sim.NewRand(p.Seed),
		params:    p,
		puSectors: geo.ProgramUnit / units.Sector,
		sbSectors: geo.SuperblockBytes() / units.Sector,
		spp:       geo.SectorsPerPage(),
		ppu:       geo.PagesPerPU(),
		bufs:      make(map[int]*zoneBuf),
	}
	d.zones, err = zns.NewManager(zns.Config{
		NumZones:     geo.NormalBlocks(),
		ZoneSize:     d.sbSectors,
		ZoneCapacity: d.sbSectors,
		MaxOpen:      p.MaxOpenZones,
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// TotalSectors returns the logical capacity.
func (d *Device) TotalSectors() int64 { return d.zones.TotalLBAs() }

// NumZones returns the zone count.
func (d *Device) NumZones() int { return d.zones.NumZones() }

// ZoneCapSectors returns sectors per zone.
func (d *Device) ZoneCapSectors() int64 { return d.sbSectors }

// Stats returns a snapshot of the counters.
func (d *Device) Stats() Stats { return d.stats }

// Array exposes the NAND array.
func (d *Device) Array() *nand.Array { return d.arr }

func (d *Device) jitter() sim.Duration {
	return d.rng.Duration(d.params.VMExitMin, d.params.VMExitMax)
}

// loc maps (zone, offset) to the flash address in zone-indexed superblock.
func (d *Device) loc(zone int, off int64) nand.Addr {
	k := off / d.puSectors
	chips := int64(d.chips)
	return nand.Addr{
		Chip:   int(k % chips),
		Block:  d.firstNorm + zone,
		Page:   int(k/chips)*d.ppu + int(off%d.puSectors)/d.spp,
		Sector: int(off % d.puSectors % int64(d.spp)),
	}
}

// Write buffers the data per zone and programs full units as they form.
func (d *Device) Write(at sim.Time, lba int64, payloads [][]byte) (sim.Time, error) {
	n := int64(len(payloads))
	zone, err := d.zones.ValidateWrite(lba, n)
	if err != nil {
		return at, err
	}
	b := d.bufs[zone]
	if b == nil {
		b = &zoneBuf{}
		d.bufs[zone] = b
	}
	if b.avail > at {
		at = b.avail
	}
	if len(b.payloads) == 0 {
		b.start = lba
	}
	b.payloads = append(b.payloads, payloads...)
	release, done := at, at
	for int64(len(b.payloads)) >= d.puSectors {
		rel, dn, err := d.programPU(at, zone, b.start, b.payloads[:d.puSectors])
		if err != nil {
			return at, err
		}
		b.start += d.puSectors
		b.payloads = b.payloads[d.puSectors:]
		if rel > release {
			release = rel
		}
		if dn > done {
			done = dn
		}
	}
	// Like FEMU, the next write waits only until the buffer's data has
	// been handed to the chips, not until the programs finish.
	b.avail = release
	if err := d.zones.CommitWrite(lba, n); err != nil {
		return at, err
	}
	d.stats.HostWrittenBytes += n * units.Sector
	d.arr.Engine().Observe(done)
	return at.Add(d.jitter()), nil
}

func (d *Device) programPU(at sim.Time, zone int, startLBA int64, sectors [][]byte) (release, done sim.Time, err error) {
	z, err := d.zones.Zone(zone)
	if err != nil {
		return at, at, err
	}
	off := startLBA - z.Start
	addr := d.loc(zone, off)
	release, done, err = d.arr.ProgramPU(at, addr.Chip, addr.Block, addr.Page-addr.Page%d.ppu, sectors)
	if err != nil {
		return at, at, err
	}
	d.stats.PUPrograms++
	return release, done, nil
}

// Flush is a no-op for sub-unit data: FEMU's ZNS mode has no secondary
// buffer to absorb partial programs, so data below a programming unit
// simply stays in the volatile buffer until the unit completes — one of
// the reasons the paper gives for FEMU being unable to reproduce premature
// write-buffer flush behaviour (§II-C). Full units were already programmed
// on the write path.
func (d *Device) Flush(at sim.Time, zone int) (sim.Time, error) {
	b := d.bufs[zone]
	if b != nil && len(b.payloads) > 0 {
		d.stats.UnflushableTails++
	}
	return at, nil
}

// FlushAll applies Flush to every zone buffer.
func (d *Device) FlushAll(at sim.Time) (sim.Time, error) {
	for zone := range d.bufs {
		if _, err := d.Flush(at, zone); err != nil {
			return at, err
		}
	}
	return at, nil
}

// Read serves a host read: direct arithmetic translation, no mapping cost,
// unthrottled transfer, plus VM-exit latency.
func (d *Device) Read(at sim.Time, lba, n int64) ([][]byte, sim.Time, error) {
	zone, err := d.zones.ValidateRead(lba, n)
	if err != nil {
		return nil, at, err
	}
	z, err := d.zones.Zone(zone)
	if err != nil {
		return nil, at, err
	}
	out := make([][]byte, n)
	d.pages.Reset()
	for i := int64(0); i < n; i++ {
		l := lba + i
		if l >= z.WP {
			continue // unwritten tail reads as zeros
		}
		// Data still in the zone buffer?
		if b := d.bufs[zone]; b != nil && l >= b.start && l < b.start+int64(len(b.payloads)) {
			out[i] = b.payloads[l-b.start]
			continue
		}
		addr := d.loc(zone, l-z.Start)
		out[i] = d.arr.Payload(d.arr.PPAOf(addr))
		d.pages.Add(addr)
	}
	done := at
	for _, r := range d.pages.Runs() {
		end, err := d.arr.ReadPage(at, r.Chip, r.Block, r.Page, r.Bytes)
		if err != nil {
			return nil, at, err
		}
		if end > done {
			done = end
		}
	}
	d.stats.HostReadBytes += n * units.Sector
	done = done.Add(d.jitter())
	d.arr.Engine().Observe(done)
	return out, done, nil
}

// ResetZone resets a zone: erase its superblock and drop the buffer.
func (d *Device) ResetZone(at sim.Time, zone int) (sim.Time, error) {
	if err := d.zones.Reset(zone); err != nil {
		return at, err
	}
	delete(d.bufs, zone)
	done := at
	block := d.firstNorm + zone
	for chip := 0; chip < d.chips; chip++ {
		dn, err := d.arr.Erase(at, chip, block)
		if err != nil {
			return at, err
		}
		if dn > done {
			done = dn
		}
	}
	d.arr.Engine().Observe(done)
	return done.Add(d.jitter()), nil
}
