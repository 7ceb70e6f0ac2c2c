// Package femu models the FEMU lineage of ZNS emulators as the paper
// characterises it (§II-C, Table I and §IV-B), so Fig. 6(a)'s comparison and
// Table I's capability matrix can be regenerated. The whole lineage has no
// L2P cache or FTL cost model, no heterogeneous media and no channel
// bandwidth model; and because FEMU runs inside a KVM guest, every host I/O
// carries tens of microseconds of virtualisation latency ("host/client
// switching"), which is what ruins its flash-scale read latencies.
//
// One device implements it, built as one of two personalities that differ
// in exactly two Table I rows:
//
//   - Stock is FEMU's own ZNS mode: a write buffer per zone (the host waits
//     for the buffer, only the next write waits for the chips, and sub-unit
//     data stays volatile — there is no premature-flush machinery), zones
//     placed on superblocks by identity.
//   - ConfZNS is the ConfZNS fork: a zone-mapping FTL (a zone binds a free
//     superblock on its first write and unbinds on reset) and no write
//     buffer, so every host write costs a program operation on the target
//     chip at once, however small it is, and the host waits for the media.
package femu

import (
	"fmt"

	"github.com/conzone/conzone/internal/nand"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
	"github.com/conzone/conzone/internal/zns"
)

// Personality names a member of the FEMU lineage. The set is closed: a
// personality is a pair of Table I rows, not a pair of switches.
type Personality int

const (
	Stock   Personality = iota // FEMU's ZNS mode: write buffer, identity zone placement
	ConfZNS                    // the ConfZNS fork: zone map, no write buffer
)

func (p Personality) String() string {
	if p == ConfZNS {
		return "confzns"
	}
	return "femu"
}

// writeBuffer and zoneMap are the two Table I capabilities a personality
// decides.
func (p Personality) writeBuffer() bool { return p == Stock }
func (p Personality) zoneMap() bool     { return p == ConfZNS }

// Params configures a device of either personality.
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
	Programs         int64 // program operations, including a bufferless device's charged sub-unit tails
	UnflushableTails int64 // flushes that found sub-unit data a write buffer cannot drain
	ZoneMapLookups   int64
}

// zoneBuf holds a zone's data that has not filled a program unit yet. With
// a write buffer that is the volatile buffer; without one the data was
// already charged, and the program covering the unit re-programs it —
// exactly the cost of having no buffer. Either way reads are served from it.
type zoneBuf struct {
	start    int64 // lba of payloads[0]
	payloads [][]byte
	avail    sim.Time // write buffer: when its data has been handed to the chips
}

// Device is a FEMU-lineage ZNS device: zone-linear placement in one
// superblock per zone, an unthrottled channel, and VM-exit jitter on
// completions.
type Device struct {
	pers      Personality
	arr       *nand.Array
	zones     *zns.Manager
	chips     int // geo.Chips()
	rng       *sim.Rand
	params    Params
	puSectors int64
	sbSectors int64
	bufs      map[int]*zoneBuf
	stats     Stats
	pages     nand.PageRuns // page batching of the current read

	// The zone-mapping FTL (nil without one): zone -> superblock, -1 when
	// unbound, and the free superblocks in first-fit order.
	zoneMap []int
	freeSBs []int
}

// New builds a device of the given personality. The geometry's SLC region is
// ignored (no heterogeneous media); its channel bandwidth is overridden to
// unlimited.
func New(pers Personality, geo nand.Geometry, lat nand.LatencyTable, p Params) (*Device, error) {
	if pers != Stock && pers != ConfZNS {
		return nil, fmt.Errorf("femu: unknown personality %d", int(pers))
	}
	if p.VMExitMin < 0 || p.VMExitMax < p.VMExitMin {
		return nil, fmt.Errorf("%v: bad VM exit latency range [%v,%v]", pers, p.VMExitMin, p.VMExitMax)
	}
	geo.ChannelMiBps = 0 // the paper: FEMU cannot simulate channel bandwidth
	arr, err := nand.NewArray(geo, lat, sim.NewEngine())
	if err != nil {
		return nil, err
	}
	d := &Device{
		pers:      pers,
		arr:       arr,
		chips:     geo.Chips(),
		rng:       sim.NewRand(p.Seed),
		params:    p,
		puSectors: geo.ProgramUnit / units.Sector,
		sbSectors: geo.SuperblockBytes() / units.Sector,
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
	if pers.zoneMap() {
		d.zoneMap = make([]int, d.zones.NumZones())
		for i := range d.zoneMap {
			d.zoneMap[i] = -1
			d.freeSBs = append(d.freeSBs, i)
		}
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

// superblock returns the superblock backing the zone: the zone's own index,
// or what the zone map holds (-1 while unbound).
func (d *Device) superblock(zone int) int {
	if !d.pers.zoneMap() {
		return zone
	}
	d.stats.ZoneMapLookups++
	return d.zoneMap[zone]
}

// bind is superblock for the write path: an unbound zone takes the first
// free superblock.
func (d *Device) bind(zone int) (int, error) {
	sb := d.superblock(zone)
	if sb >= 0 {
		return sb, nil
	}
	if len(d.freeSBs) == 0 {
		return -1, fmt.Errorf("%v: no free superblock for zone %d", d.pers, zone)
	}
	d.zoneMap[zone] = d.freeSBs[0]
	d.freeSBs = d.freeSBs[1:]
	return d.zoneMap[zone], nil
}

// Write accepts a sequential zone write and programs full units as they
// form. With a write buffer the host is acknowledged once the data is
// buffered. Without one the device charges media time on every write: a
// sub-unit tail costs one program's latency on its chip anyway (the device
// must make it durable somehow — ConfZNS charges the operation without
// modelling where partial data lives; the media state is written when the
// unit completes), and the host waits for the media.
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
	var k int64 // sectors of b.payloads programmed by this write
	for ; int64(len(b.payloads))-k >= d.puSectors; k += d.puSectors {
		addr := d.arr.StripeAddr(sb, b.start+k-z.Start)
		var rel, dn sim.Time
		if rel, dn, err = d.arr.ProgramPU(at, addr.Chip, addr.Block, addr.Page, b.payloads[k:k+d.puSectors]); err != nil {
			break
		}
		d.stats.Programs++
		release, done = sim.Max(release, rel), sim.Max(done, dn)
	}
	// Compact in place: reslicing past the programmed units would leave
	// append no room to grow into and make it reallocate on the next write.
	b.start += k
	rest := copy(b.payloads, b.payloads[k:])
	clear(b.payloads[rest:])
	b.payloads = b.payloads[:rest]
	if err != nil {
		return at, err
	}
	ack := at
	if d.pers.writeBuffer() {
		// Like FEMU, the next write waits only until the buffer's data has
		// been handed to the chips, not until the programs finish.
		b.avail = release
	} else {
		if len(b.payloads) > 0 {
			dn, err := d.arr.ChargeMapProgram(at, d.arr.StripeAddr(sb, b.start-z.Start).Chip)
			if err != nil {
				return at, err
			}
			d.stats.Programs++
			done = sim.Max(done, dn)
		}
		ack = done // no buffer to hide behind
	}
	if err := d.zones.CommitWrite(lba, n); err != nil {
		return at, err
	}
	d.stats.HostWrittenBytes += n * units.Sector
	d.arr.Engine().Observe(done)
	return ack.Add(d.jitter()), nil
}

// Flush moves no data in either personality. A write buffer cannot drain
// sub-unit data — FEMU's ZNS mode has no secondary buffer to absorb partial
// programs, so it stays volatile until the unit completes, one of the
// reasons the paper gives for FEMU being unable to reproduce premature
// write-buffer flush behaviour (§II-C) — and a bufferless device charged its
// tails on the write path. Full units were already programmed there.
func (d *Device) Flush(at sim.Time, zone int) (sim.Time, error) {
	if b := d.bufs[zone]; d.pers.writeBuffer() && b != nil && len(b.payloads) > 0 {
		d.stats.UnflushableTails++
	}
	return at, nil
}

// FlushAll applies Flush to every zone.
func (d *Device) FlushAll(at sim.Time) (sim.Time, error) {
	for zone := range d.bufs {
		if _, err := d.Flush(at, zone); err != nil {
			return at, err
		}
	}
	return at, nil
}

// ReadInto serves a host read of n sectors into out (exactly n entries):
// arithmetic translation (through the zone map where there is one, one
// lookup per request), no mapping cost, unthrottled transfer, plus VM-exit
// latency. The entries are borrowed views of the media or the zone buffer
// (nil for an unwritten sector), stable until the next device operation.
func (d *Device) ReadInto(at sim.Time, lba, n int64, out [][]byte) (sim.Time, error) {
	zone, err := d.zones.ValidateRead(lba, n)
	if err != nil {
		return at, err
	}
	if int64(len(out)) != n {
		return at, fmt.Errorf("%v: ReadInto dst holds %d entries, want %d", d.pers, len(out), n)
	}
	z, err := d.zones.Zone(zone)
	if err != nil {
		return at, err
	}
	sb := d.superblock(zone)
	d.pages.Reset()
	for i := int64(0); i < n; i++ {
		l := lba + i
		out[i] = nil
		if l >= z.WP || sb < 0 {
			continue // unwritten tail reads as zeros
		}
		// Data of a unit that has not been programmed yet?
		if b := d.bufs[zone]; b != nil && l >= b.start && l < b.start+int64(len(b.payloads)) {
			out[i] = b.payloads[l-b.start]
			continue
		}
		addr := d.arr.StripeAddr(sb, l-z.Start)
		out[i] = d.arr.Payload(d.arr.PPAOf(addr))
		d.pages.Add(addr)
	}
	done := at
	for _, r := range d.pages.Runs() {
		end, err := d.arr.ReadPage(at, r.Chip, r.Block, r.Page, r.Bytes)
		if err != nil {
			return at, err
		}
		if end > done {
			done = end
		}
	}
	d.stats.HostReadBytes += n * units.Sector
	done = done.Add(d.jitter())
	d.arr.Engine().Observe(done)
	return done, nil
}

// ResetZone resets a zone: erase its superblock, drop its buffered data
// and, with a zone map, return the superblock to the free pool.
func (d *Device) ResetZone(at sim.Time, zone int) (sim.Time, error) {
	if err := d.zones.Reset(zone); err != nil {
		return at, err
	}
	if b := d.bufs[zone]; b != nil {
		clear(b.payloads)
		*b = zoneBuf{payloads: b.payloads[:0]} // empty, its storage kept for the zone's next life
	}
	sb := zone
	if d.pers.zoneMap() {
		sb = d.zoneMap[zone]
	}
	done := at
	if sb >= 0 {
		block := d.arr.StripeAddr(sb, 0).Block
		for chip := 0; chip < d.chips; chip++ {
			dn, err := d.arr.Erase(at, chip, block)
			if err != nil {
				return at, err
			}
			if dn > done {
				done = dn
			}
		}
		if d.pers.zoneMap() {
			d.freeSBs = append(d.freeSBs, sb)
			d.zoneMap[zone] = -1
		}
	}
	d.arr.Engine().Observe(done)
	return done.Add(d.jitter()), nil
}
