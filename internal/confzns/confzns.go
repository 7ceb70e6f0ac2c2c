// Package confzns models the ConfZNS emulator as the paper's Table I
// characterises it: a FEMU derivative (so VM-exit latency and no channel
// bandwidth model) whose FTL implements *zone mapping* — a per-zone
// translation to a superblock — but which has **no write buffer**, no L2P
// cache model, and no heterogeneous media.
//
// The missing write buffer is the interesting difference: every host write
// immediately costs a program operation on the target chips, however small
// the write is, because there is nothing to aggregate sub-unit data in.
// This is why ConfZNS cannot reproduce the premature-flush behaviour the
// paper studies. The package completes the four-emulator landscape of
// Table I for comparative experiments.
package confzns

import (
	"fmt"

	"github.com/conzone/conzone/internal/nand"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
	"github.com/conzone/conzone/internal/zns"
)

// Params configures the ConfZNS personality.
type Params struct {
	// VMExitMin/Max bound the per-I/O virtualisation latency (ConfZNS is
	// FEMU-based, §II-C).
	VMExitMin, VMExitMax sim.Duration
	Seed                 uint64
	MaxOpenZones         int
}

// Stats counts device activity.
type Stats struct {
	HostReadBytes    int64
	HostWrittenBytes int64
	Programs         int64 // program ops; one per write regardless of size
	ZoneMapLookups   int64
}

// Device is the ConfZNS-like ZNS device.
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

	// zoneMap is the zone-mapping FTL: zone -> superblock. ConfZNS
	// allocates superblocks to zones dynamically; here zones bind on
	// first write and unbind on reset.
	zoneMap []int
	freeSBs []int

	// pending tracks sub-unit data per zone that has been "written" (and
	// charged) but whose unit is not complete; the next program covering
	// the unit re-programs it, which is exactly the cost of having no
	// write buffer. Payload bytes are retained for read-back.
	pend map[int]*zonePend

	stats Stats
	pages nand.PageRuns // page batching of the current read
}

type zonePend struct {
	start    int64 // lba of the pending run
	payloads [][]byte
}

// New builds a ConfZNS-personality device.
func New(geo nand.Geometry, lat nand.LatencyTable, p Params) (*Device, error) {
	if p.VMExitMin < 0 || p.VMExitMax < p.VMExitMin {
		return nil, fmt.Errorf("confzns: bad VM exit latency range [%v,%v]", p.VMExitMin, p.VMExitMax)
	}
	geo.ChannelMiBps = 0 // FEMU lineage: no channel bandwidth model
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
		pend:      make(map[int]*zonePend),
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
	d.zoneMap = make([]int, d.zones.NumZones())
	for i := range d.zoneMap {
		d.zoneMap[i] = -1
		d.freeSBs = append(d.freeSBs, i)
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

// bind attaches the zone to a free superblock (the zone-mapping FTL).
func (d *Device) bind(zone int) (int, error) {
	d.stats.ZoneMapLookups++
	if d.zoneMap[zone] >= 0 {
		return d.zoneMap[zone], nil
	}
	if len(d.freeSBs) == 0 {
		return -1, fmt.Errorf("confzns: no free superblock for zone %d", zone)
	}
	d.zoneMap[zone] = d.freeSBs[0]
	d.freeSBs = d.freeSBs[1:]
	return d.zoneMap[zone], nil
}

func (d *Device) loc(sb int, off int64) nand.Addr {
	k := off / d.puSectors
	chips := int64(d.chips)
	return nand.Addr{
		Chip:   int(k % chips),
		Block:  d.firstNorm + sb,
		Page:   int(k/chips)*d.ppu + int(off%d.puSectors)/d.spp,
		Sector: int(off % d.puSectors % int64(d.spp)),
	}
}

// Write accepts a sequential zone write. Without a write buffer, the
// device charges media time on every write: each touched programming unit
// costs a program op as soon as its data is complete; sub-unit tails cost
// the program latency anyway (the device must make them durable somehow —
// ConfZNS charges the op without modelling where partial data lives).
func (d *Device) Write(at sim.Time, lba int64, payloads [][]byte) (sim.Time, error) {
	n := int64(len(payloads))
	zone, err := d.zones.ValidateWrite(lba, n)
	if err != nil {
		return at, err
	}
	sb, err := d.bind(zone)
	if err != nil {
		return at, err
	}
	z, err := d.zones.Zone(zone)
	if err != nil {
		return at, err
	}

	// Merge any pending sub-unit run with the new data.
	p := d.pend[zone]
	if p == nil {
		p = &zonePend{start: lba}
		d.pend[zone] = p
	}
	p.payloads = append(p.payloads, payloads...)

	done := at
	// Program every complete unit of the pending run.
	for int64(len(p.payloads)) >= d.puSectors {
		off := p.start - z.Start
		addr := d.loc(sb, off)
		_, dn, err := d.arr.ProgramPU(at, addr.Chip, addr.Block, addr.Page-addr.Page%d.ppu, p.payloads[:d.puSectors])
		if err != nil {
			return at, err
		}
		d.stats.Programs++
		p.start += d.puSectors
		p.payloads = p.payloads[d.puSectors:]
		if dn > done {
			done = dn
		}
	}
	// A sub-unit tail still costs one program's latency on its chip: the
	// device has no buffer to hold it. The media state is written when
	// the unit completes; only the time is charged here.
	if len(p.payloads) > 0 {
		addr := d.loc(sb, p.start-z.Start)
		dn, err := d.arr.ChargeMapProgram(at, addr.Chip)
		if err != nil {
			return at, err
		}
		d.stats.Programs++
		if dn > done {
			done = dn
		}
	}

	if err := d.zones.CommitWrite(lba, n); err != nil {
		return at, err
	}
	d.stats.HostWrittenBytes += n * units.Sector
	d.arr.Engine().Observe(done)
	// No buffer to hide behind: the host waits for the media.
	return done.Add(d.jitter()), nil
}

// Flush is a no-op: there is no volatile buffer to drain (sub-unit tails
// were already charged on the write path).
func (d *Device) Flush(at sim.Time, zone int) (sim.Time, error) { return at, nil }

// FlushAll is a no-op, as Flush.
func (d *Device) FlushAll(at sim.Time) (sim.Time, error) { return at, nil }

// Read serves a host read through the zone map: one lookup per request, no
// L2P cache model, unthrottled transfer, plus VM-exit latency.
func (d *Device) Read(at sim.Time, lba, n int64) ([][]byte, sim.Time, error) {
	zone, err := d.zones.ValidateRead(lba, n)
	if err != nil {
		return nil, at, err
	}
	z, err := d.zones.Zone(zone)
	if err != nil {
		return nil, at, err
	}
	d.stats.ZoneMapLookups++
	out := make([][]byte, n)
	sb := d.zoneMap[zone]
	d.pages.Reset()
	for i := int64(0); i < n; i++ {
		l := lba + i
		if l >= z.WP || sb < 0 {
			continue
		}
		// Pending (uncommitted-unit) data is served from the run.
		if p := d.pend[zone]; p != nil && l >= p.start && l < p.start+int64(len(p.payloads)) {
			out[i] = p.payloads[l-p.start]
			continue
		}
		addr := d.loc(sb, l-z.Start)
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

// ResetZone erases the zone's superblock and returns it to the free pool.
func (d *Device) ResetZone(at sim.Time, zone int) (sim.Time, error) {
	if err := d.zones.Reset(zone); err != nil {
		return at, err
	}
	delete(d.pend, zone)
	done := at
	if sb := d.zoneMap[zone]; sb >= 0 {
		block := d.firstNorm + sb
		for chip := 0; chip < d.chips; chip++ {
			dn, err := d.arr.Erase(at, chip, block)
			if err != nil {
				return at, err
			}
			if dn > done {
				done = dn
			}
		}
		d.freeSBs = append(d.freeSBs, sb)
		d.zoneMap[zone] = -1
	}
	d.arr.Engine().Observe(done)
	return done.Add(d.jitter()), nil
}
