package ftl

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"github.com/conzone/conzone/internal/l2pcache"
	"github.com/conzone/conzone/internal/mapping"
	"github.com/conzone/conzone/internal/nand"
	"github.com/conzone/conzone/internal/sim"
)

// The write path used to rescan the current chunk from its base before
// offering it to the table (fullyMapped below); it now offers every touched
// chunk and lets the table refuse in O(1). This file keeps the old rule as
// the reference: a shadow table follows the device's page-granularity
// translations and is promoted by the rescan rule, and the device's map bits
// must equal the shadow's at every LPA after every operation. The L2P cache
// contents and ftl.Stats at the end of each stream are pinned to the digests
// the rescan code itself produced at b9f1aa8.

// fullyMapped is the deleted pre-scan: n sectors from lpa are all valid.
func fullyMapped(t *mapping.Table, lpa, n int64) bool {
	for i := int64(0); i < n; i++ {
		if _, ok := t.Get(lpa + i); !ok {
			return false
		}
	}
	return true
}

// rescanAggregate is aggregateAfterWrite as it stood at b9f1aa8, applied to
// the shadow table after [off, off+n) of the zone starting at zstart changed.
func rescanAggregate(ref *mapping.Table, zstart, off, n, chunk, zoneCap int64, zones bool) {
	for c := off / chunk; c <= (off+n-1)/chunk; c++ {
		lpa := zstart + c*chunk
		if (c+1)*chunk <= off+n || fullyMapped(ref, lpa, chunk) {
			ref.TryAggregateChunk(lpa)
		}
	}
	if zones && off+n == zoneCap {
		ref.TryAggregateZone(zstart)
	}
}

// aggOracle drives one FTL and its shadow. With mountEvery set, every
// mountEvery-th operation is followed by a mount — flush, Remount, carry on
// with the mounted FTL — and the mounted map bits face the rescan rule
// applied to the mounted translations (rescanShadow). The shadow is rebuilt
// there and not carried across, because live map bits can sit below what the
// translations give: demoting a zone entry (staging GC moved one tail
// sector) flattens the whole zone to page entries, the head's intact chunks
// included, and no trace of that is on the media for a mount to find.
type aggOracle struct {
	t   *testing.T
	f   *FTL
	ref *mapping.Table
	rng *sim.Rand
	at  sim.Time
	ops int

	mountEvery, mounts int
	unchecked          bool // drive the stream only (TestMountMatchesLive compares at its end)

	base           int   // zones the streams skip: a conventional prefix
	resets, killed int64 // resets checked against the staging region, and the staged sectors they killed
}

func newAggOracle(t *testing.T, seed uint64, mut func(*Params)) *aggOracle {
	t.Helper()
	return newAggOracleOn(t, newTestFTL(t, mut), seed)
}

func newAggOracleOn(t *testing.T, f *FTL, seed uint64) *aggOracle {
	return &aggOracle{t: t, f: f, ref: rescanShadow(t, f), rng: sim.NewRand(seed), base: f.params.ConventionalZones}
}

// rescanShadow builds the shadow of f's translations as they stand: every
// mapped LPA copied, each run of them promoted by the rescan rule as if it
// had just been written. It is what the map bits of a table are when nothing
// but the translations is known — which is all a mount can know.
func rescanShadow(t *testing.T, f *FTL) *mapping.Table {
	t.Helper()
	ref, err := mapping.NewTable(mapping.Config{
		TotalSectors: f.TotalSectors(),
		ChunkSectors: f.params.ChunkSectors,
		ZoneSectors:  f.zoneCap,
		AggLimit:     f.aggLimit,
	})
	if err != nil {
		t.Fatal(err)
	}
	for zstart := int64(0); zstart < f.TotalSectors(); zstart += f.zoneCap {
		runStart := int64(-1)
		for off := int64(0); off <= f.zoneCap; off++ {
			p, ok := f.table.Get(zstart + off)
			if ok && off < f.zoneCap {
				if err := ref.Set(zstart+off, p); err != nil {
					t.Fatal(err)
				}
				if runStart < 0 {
					runStart = off
				}
			} else if runStart >= 0 {
				if !f.params.DisableAggregation {
					rescanAggregate(ref, zstart, runStart, off-runStart,
						f.params.ChunkSectors, f.zoneCap, f.params.AggregateZones)
				}
				runStart = -1
			}
		}
	}
	return ref
}

// sync checks the device against the shadow after one operation, and again
// after the mount that follows it when one is due.
func (o *aggOracle) sync(what string) {
	o.t.Helper()
	o.ops++
	if o.unchecked {
		return
	}
	o.check(what)
	if o.mountEvery == 0 || o.ops%o.mountEvery != 0 {
		return
	}
	d, err := o.f.FlushAll(o.at)
	if err != nil {
		o.t.Fatalf("op %d: flush before mount: %v", o.ops, err)
	}
	o.check("flush before mount")
	f, done, err := o.f.Remount()
	if err != nil {
		o.t.Fatalf("op %d: mount: %v", o.ops, err)
	}
	if err := f.CheckInvariants(); err != nil {
		o.t.Fatalf("op %d: mounted state: %v", o.ops, err)
	}
	sameTranslations(o.t, o.f, f)
	o.f, o.at, o.ref = f, sim.Max(d, done), rescanShadow(o.t, f)
	o.mounts++
	o.check("mount")
}

// check copies every translation the last operation changed into the shadow,
// promotes the shadow by the rescan rule, and compares the map bits.
func (o *aggOracle) check(what string) {
	o.t.Helper()
	f, tab := o.f, o.f.Table()
	for zone := 0; zone < f.numZones; zone++ {
		zstart := int64(zone) * f.zoneCap
		// A sequential zone maps its first sector first: skip untouched zones.
		if _, ok := tab.Get(zstart); !ok {
			if _, rok := o.ref.Get(zstart); !rok {
				continue
			}
		}
		runStart := int64(-1)
		for off := int64(0); off <= f.zoneCap; off++ {
			changed := false
			if off < f.zoneCap {
				p, ok := tab.Get(zstart + off)
				rp, rok := o.ref.Get(zstart + off)
				switch {
				case ok && (!rok || p != rp):
					if err := o.ref.Set(zstart+off, p); err != nil {
						o.t.Fatal(err)
					}
					changed = true
				case !ok && rok:
					o.t.Fatalf("op %d (%s): LPA %d lost its mapping without a reset", o.ops, what, zstart+off)
				}
			}
			if changed && runStart < 0 {
				runStart = off
			}
			if !changed && runStart >= 0 {
				if !f.params.DisableAggregation {
					rescanAggregate(o.ref, zstart, runStart, off-runStart,
						f.params.ChunkSectors, f.zoneCap, f.params.AggregateZones)
				}
				runStart = -1
			}
		}
	}
	for lpa := int64(0); lpa < f.TotalSectors(); lpa++ {
		if got, want := tab.Bits(lpa), o.ref.Bits(lpa); got != want {
			o.t.Fatalf("op %d (%s): map bits of LPA %d = %v, the rescan rule gives %v", o.ops, what, lpa, got, want)
		}
	}
}

// wp returns the write pointer of the stream's zone; wpAt takes a device zone.
func (o *aggOracle) wp(zone int) int64 { return o.wpAt(zone + o.base) }

func (o *aggOracle) wpAt(zone int) int64 {
	z, err := o.f.Zones().Zone(zone)
	if err != nil {
		o.t.Fatal(err)
	}
	return z.WP - z.Start
}

// write appends up to n sectors at the zone's write pointer and reports how
// many it wrote (0 when the zone is full).
func (o *aggOracle) write(zone int, n int64) int64 {
	o.t.Helper()
	zone += o.base
	off := o.wpAt(zone)
	if room := o.f.zoneCap - off; n > room {
		n = room
	}
	if n == 0 {
		return 0
	}
	lba := int64(zone)*o.f.zoneCap + off
	d, err := o.f.Write(o.at, lba, make([][]byte, n)) // timing-only: no payloads
	if err != nil {
		o.t.Fatalf("op %d: write zone %d [%d,+%d): %v", o.ops, zone, off, n, err)
	}
	o.at = d
	o.sync(fmt.Sprintf("write z%d [%d,+%d)", zone, off, n))
	return n
}

func (o *aggOracle) flush(zone int) {
	o.t.Helper()
	zone += o.base
	d, err := o.f.Flush(o.at, zone)
	if err != nil {
		o.t.Fatalf("op %d: flush zone %d: %v", o.ops, zone, err)
	}
	o.at = d
	o.sync(fmt.Sprintf("flush z%d", zone))
}

// reset resets the zone and checks what the reset did to the staging
// region against its reverse map: the live staged sectors whose LPA lies in
// the zone all die, and nothing else does.
func (o *aggOracle) reset(zone int) {
	o.t.Helper()
	zone += o.base
	reg := o.f.Staging()
	var owned []int64
	for idx := int64(0); idx < reg.TotalSectors(); idx++ {
		if lpa, err := reg.LPAAt(idx); err == nil && lpa/o.f.zoneCap == int64(zone) {
			owned = append(owned, idx)
		}
	}
	before := reg.TotalValid()
	d, err := o.f.ResetZone(o.at, zone)
	if err != nil {
		o.t.Fatalf("op %d: reset zone %d: %v", o.ops, zone, err)
	}
	for _, idx := range owned {
		if reg.IsValid(idx) {
			o.t.Fatalf("op %d: reset of zone %d left its staged sector %d live", o.ops, zone, idx)
		}
	}
	if got, want := reg.TotalValid(), before-int64(len(owned)); got != want {
		o.t.Fatalf("op %d: reset of zone %d killed %d staged sectors, the zone owned %d", o.ops, zone, before-got, len(owned))
	}
	o.resets++
	o.killed += int64(len(owned))
	o.at = d
	if err := o.ref.InvalidateZone(int64(zone) * o.f.zoneCap); err != nil {
		o.t.Fatal(err)
	}
	o.sync(fmt.Sprintf("reset z%d", zone))
}

// read reads a random written range of the zone, so the cache sees lookups,
// fetches and — under Pinned — the entries the write path inserted.
func (o *aggOracle) read(zone int) {
	o.t.Helper()
	zone += o.base
	w := o.wpAt(zone)
	if w == 0 {
		return
	}
	off := o.rng.Int63n(w)
	n := 1 + o.rng.Int63n(min(w-off, 8))
	_, d, err := o.f.Read(o.at, int64(zone)*o.f.zoneCap+off, n)
	if err != nil {
		o.t.Fatalf("op %d: read zone %d [%d,+%d): %v", o.ops, zone, off, n, err)
	}
	o.at = d
	o.sync(fmt.Sprintf("read z%d [%d,+%d)", zone, off, n))
}

// fill writes the zone to capacity in random pieces of at most maxPiece
// sectors, flushing after a piece with probability flushPct/100.
func (o *aggOracle) fill(zone int, maxPiece, flushPct int64) {
	for o.write(zone, 1+o.rng.Int63n(maxPiece)) > 0 {
		if o.rng.Int63n(100) < flushPct {
			o.flush(zone)
		}
		if o.rng.Int63n(4) == 0 {
			o.read(zone)
		}
	}
	o.flush(zone)
}

// digest hashes what the change of rule must not move: the translation and
// map bits of every LPA, the cache contents in LRU order, the FTL and cache
// counters, and the clock.
func (o *aggOracle) digest() string {
	h := sha256.New()
	tab := o.f.Table()
	for lpa := int64(0); lpa < o.f.TotalSectors(); lpa++ {
		p, _ := tab.Get(lpa)
		fmt.Fprintf(h, "%d:%d:%d ", lpa, p, tab.Bits(lpa))
	}
	o.f.Cache().ForEach(func(e l2pcache.Entry) bool {
		fmt.Fprintf(h, "%+v ", e)
		return true
	})
	// The digests were recorded while ftl.Stats still mirrored four fault
	// counters between L2PLogPages and Relocations; they live in fault.Stats
	// now and are always 0 here (no injector), so they are hashed where the
	// recorded rendering had them.
	st := strings.Replace(fmt.Sprintf("%+v", o.f.Stats()), " Relocations:",
		" ProgramFails:0 EraseFails:0 ReadRetries:0 UncorrectableReads:0 Relocations:", 1)
	fmt.Fprintf(h, "%s %+v %d", st, o.f.Cache().Stats(), o.at)
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// aggStreams are the seeded operation streams, one per write-path shape
// that reaches aggregateAfterWrite.
var aggStreams = []struct {
	name string
	run  func(o *aggOracle)
}{
	// Large sequential writes: program units land directly, chunks and
	// the zone complete in order (Fig. 5).
	{"seqfill", func(o *aggOracle) {
		for zone := 0; zone < 3; zone++ {
			o.fill(zone, 96, 0)
		}
	}},
	// Sub-unit writes flushed early: the partial run is staged in SLC and
	// the next flush combines it into a full unit (Fig. 3 ②③), so chunks
	// complete through the combine path.
	{"flush-combine", func(o *aggOracle) {
		for zone := 0; zone < 2; zone++ {
			o.fill(zone, 23, 60)
		}
	}},
	// The head region written whole, then the alignment tail staged in
	// small flushed pieces of two zones in turn: one tail stays
	// zone-linear, the other does not.
	{"tail", func(o *aggOracle) {
		head := o.f.sbSectors
		o.write(0, head)
		o.write(1, head)
		for o.wp(0) < o.f.zoneCap || o.wp(1) < o.f.zoneCap {
			for zone := 0; zone < 2; zone++ {
				if o.write(zone, 1+o.rng.Int63n(40)) > 0 {
					o.flush(zone)
				}
			}
		}
		o.reset(1) // a retained tail holds staging space until its zone resets
		o.fill(2, 64, 10)
	}},
	// Fill, read, reset, refill differently: the zone's table is released
	// and reused, and Pinned entries must follow.
	{"reset-refill", func(o *aggOracle) {
		o.fill(0, 96, 0)
		o.read(0)
		o.reset(0)
		for o.wp(0) < 200 {
			o.write(0, 1+o.rng.Int63n(30))
			o.flush(0)
		}
		o.read(0)
		o.reset(0)
		o.fill(0, 48, 20)
		o.fill(1, 96, 0)
		o.reset(1)
	}},
	// Four zones on two write buffers: premature flushes, staging, SLC
	// garbage collection relocating staged sectors, resets of full zones.
	{"conflict-mix", func(o *aggOracle) {
		for i := 0; i < 400; i++ {
			zone := int(o.rng.Int63n(4))
			switch r := o.rng.Int63n(10); {
			case r < 6:
				if o.write(zone, 1+o.rng.Int63n(48)) == 0 {
					o.reset(zone)
				}
			case r < 7:
				o.flush(zone)
			default:
				o.read(zone)
			}
		}
		for zone := 0; zone < 4; zone++ {
			o.flush(zone)
		}
	}},
}

// aggGolden holds, per stream and configuration, the digests of seeds 1-3
// the rescan write path produced at b9f1aa8 (the parent of the change that deleted
// it). A digest that moves means a promotion decision, a pinned insert or a
// counter changed.
var aggGolden = map[string]string{
	"seqfill/BITMAP":               "65add6c4d55941bb6608c848a5c59170fa5eb12e426999e5",
	"seqfill/BITMAP/noagg":         "23fec7b98b264623712cf74d2bb9fa8c06d7346988bb467d",
	"seqfill/MULTIPLE":             "a9a8974d2ca4bfe9e887bbbfe3adb207d76a8abe66fc6b9c",
	"seqfill/MULTIPLE/noagg":       "1a9ce696acb367fe8a23fd8f6f933ece5b0557697b47fd89",
	"seqfill/PINNED":               "eb83003c398797630dff81f98f4603c49937d26a182247c5",
	"seqfill/PINNED/noagg":         "23fec7b98b264623712cf74d2bb9fa8c06d7346988bb467d",
	"seqfill/PINNED/nozone":        "b4c1aa7113c2aaa96c11e7d3349a56c879c4063e1cabd313",
	"flush-combine/BITMAP":         "6556af64dfc9fa107f69aaa35872d537f2d4581254b47866",
	"flush-combine/BITMAP/noagg":   "1ea449fe9d3bdc4b76834b1f76ddb46108676003e081d407",
	"flush-combine/MULTIPLE":       "781ab71bc9619978db4b936934cf07d716698b36c5a89558",
	"flush-combine/MULTIPLE/noagg": "a3e2815c94986a6206bcd15e01a89bf87027efbab4160a30",
	"flush-combine/PINNED":         "d2c96aaa947fb0ab3b1d8283c0d39d7c4f7ffb7d9820e87a",
	"flush-combine/PINNED/noagg":   "1ea449fe9d3bdc4b76834b1f76ddb46108676003e081d407",
	"flush-combine/PINNED/nozone":  "72dd9854dd78dc7d941603e2375991fa5ef0d8b40c7126c5",
	"tail/BITMAP":                  "18f252599b915062f54271e5b46196241e483a6b75e75347",
	"tail/BITMAP/noagg":            "bd169315b0a4c09b2657ed263a0f7ca5cb0cba94f87bdca7",
	"tail/MULTIPLE":                "0c0685748b34a3816923eaa174d56b3d7bdfda6a8681b7e9",
	"tail/MULTIPLE/noagg":          "d9ad8dc95b31079c343858e4cf3283611d89be5e8b1715fb",
	"tail/PINNED":                  "e0570f009adcd3d4adf303d37600f12560bea72045e39af5",
	"tail/PINNED/noagg":            "bd169315b0a4c09b2657ed263a0f7ca5cb0cba94f87bdca7",
	"tail/PINNED/nozone":           "e0570f009adcd3d4adf303d37600f12560bea72045e39af5",
	"reset-refill/BITMAP":          "2a25df31f77843a6e6da59d1b342ff6850044c4b24a7ff5e",
	"reset-refill/BITMAP/noagg":    "bacf1d44857b5e08d04d73ec332d866f452e8d0dcde32bb7",
	"reset-refill/MULTIPLE":        "3d21246b42cf5420d22248bdd9970a3fd48158fbb4662b00",
	"reset-refill/MULTIPLE/noagg":  "bc93ed9e2494902de6eea6d6a44b1fca9a46e6688c61a062",
	"reset-refill/PINNED":          "2d39c374437a4b0695baedfdd2cae707114b0ec54d5cd3c8",
	"reset-refill/PINNED/noagg":    "bacf1d44857b5e08d04d73ec332d866f452e8d0dcde32bb7",
	"reset-refill/PINNED/nozone":   "18d561e679c0193d28b887cd535fcb7d63967b479f9b5e77",
	"conflict-mix/BITMAP":          "1bf54be810f67ae00c3d6ee443d0ed46fbd03980b2d4e00f",
	"conflict-mix/BITMAP/noagg":    "66fdd0cae449851ec4ad63ee5539fda86d2610de5d6a74d8",
	"conflict-mix/MULTIPLE":        "281ffaed15175206f12c584817d06b5d716b197f592a6791",
	"conflict-mix/MULTIPLE/noagg":  "b8fede8250ad0b09fe4795493b580a1e00ddd042345f8ec7",
	"conflict-mix/PINNED":          "2c4af74cd690f7710c51d8acddb3e2033fedf737a2844ec2",
	"conflict-mix/PINNED/noagg":    "66fdd0cae449851ec4ad63ee5539fda86d2610de5d6a74d8",
	"conflict-mix/PINNED/nozone":   "2c4af74cd690f7710c51d8acddb3e2033fedf737a2844ec2",
}

// aggMountEvery is the mounted pass's interval: the shortest stream runs
// some 40 operations and must meet a mount, the longest some 500 and meets
// a dozen, with zones at every stage of filling.
const aggMountEvery = 17

func TestAggregationMatchesRescanOracle(t *testing.T) {
	type variant struct {
		name string
		mut  func(*Params)
	}
	var variants []variant
	for _, s := range []Strategy{Bitmap, Multiple, Pinned} {
		variants = append(variants,
			variant{s.String(), func(p *Params) { p.Search = s }},
			variant{s.String() + "/noagg", func(p *Params) { p.Search, p.DisableAggregation = s, true }})
	}
	variants = append(variants, variant{"PINNED/nozone", func(p *Params) { p.Search, p.AggregateZones = Pinned, false }})

	promoted := false
	for _, st := range aggStreams {
		for _, v := range variants {
			name := st.name + "/" + v.name
			t.Run(name, func(t *testing.T) {
				var digests string
				for seed := uint64(1); seed <= 3; seed++ {
					o := newAggOracle(t, seed, v.mut)
					st.run(o)
					if err := o.f.CheckInvariants(); err != nil {
						t.Fatal(err)
					}
					for lpa := int64(0); lpa < o.f.TotalSectors(); lpa += o.f.params.ChunkSectors {
						promoted = promoted || o.f.Table().Bits(lpa) != mapping.Page
					}
					digests += o.digest()
				}
				if want := aggGolden[name]; digests != want {
					t.Errorf("seeds 1-3 digest %s, the rescan write path gave %s", digests, want)
				}
				// The same streams with mounts spliced in. The flushes move
				// the digests, so this pass answers to the rescan rule only:
				// a mount must give every LPA the map bits the shadow holds.
				for seed := uint64(1); seed <= 3; seed++ {
					o := newAggOracle(t, seed, v.mut)
					o.mountEvery = aggMountEvery
					st.run(o)
					if err := o.f.CheckInvariants(); err != nil {
						t.Fatal(err)
					}
					if o.mounts == 0 {
						t.Errorf("seed %d: %d operations and no mount", seed, o.ops)
					}
				}
			})
		}
	}
	if !promoted {
		t.Error("no stream ever promoted a chunk: the oracle compared nothing")
	}
}

// lastRowStream stages partial units, and with combining off whole ones,
// only in the last row of units of a zone's head — a unit per chip, none
// programmed after it on the same chip: two zones into their tails, a reset
// and a partial refill of one, the other filled to capacity, and resets.
var lastRowStream = struct {
	name string
	run  func(o *aggOracle)
}{"last-row", func(o *aggOracle) {
	lastRow := o.f.sbSectors - int64(o.f.geo.Chips())*o.f.puSectors
	for zone := 0; zone < 2; zone++ {
		o.write(zone, lastRow)
		for o.write(zone, 1+o.rng.Int63n(23)) > 0 && o.wp(zone) < o.f.sbSectors+16 {
			o.flush(zone)
		}
	}
	o.reset(1)
	o.write(1, lastRow+o.rng.Int63n(o.f.puSectors))
	o.flush(1)
	o.reset(1)
	o.fill(0, 40, 50)
	o.reset(0)
}}

// TestResetInvalidatesTheZonesStaging: a reset reads the zone's staging from
// its mapping entries — staged PSNs and a zone-linear tail. Over the oracle
// streams, in seven configurations
// (the three search strategies, page mapping, no zone aggregation, no
// combining, and two conventional zones holding in-place updates ahead of
// the streams' zones), each reset must kill exactly the live staged sectors
// the staging region's reverse map places in the zone (aggOracle.reset).
//
// With combining off, a staged unit leaves its place in the superblock
// unprogrammed, and the next unit the same chip programs there is refused as
// out of order (ROADMAP item 16). So that configuration runs the streams
// that never program past a staged unit: seqfill and lastRowStream.
func TestResetInvalidatesTheZonesStaging(t *testing.T) {
	variants := []struct {
		name string
		mut  func(*Params)
		geo  func() nand.Geometry
	}{
		{"BITMAP", func(p *Params) { p.Search = Bitmap }, testGeo},
		{"MULTIPLE", func(p *Params) { p.Search = Multiple }, testGeo},
		{"PINNED", func(p *Params) { p.Search = Pinned }, testGeo},
		{"BITMAP/noagg", func(p *Params) { p.DisableAggregation = true }, testGeo},
		{"PINNED/nozone", func(p *Params) { p.Search, p.AggregateZones = Pinned, false }, testGeo},
		{"BITMAP/nocombine", func(p *Params) { p.DisableCombine = true }, testGeo},
		{"BITMAP/conv", func(p *Params) { p.ConventionalZones = 2 }, convGeo},
	}
	var resets, killed int64
	for _, st := range append(aggStreams[:len(aggStreams):len(aggStreams)], lastRowStream) {
		for _, v := range variants {
			p := testParams()
			v.mut(&p)
			if p.DisableCombine && st.name != "seqfill" && st.name != lastRowStream.name {
				continue
			}
			t.Run(st.name+"/"+v.name, func(t *testing.T) {
				for seed := uint64(1); seed <= 3; seed++ {
					f, err := New(v.geo(), nand.DefaultLatencies(), p)
					if err != nil {
						t.Fatal(err)
					}
					o := newAggOracleOn(t, f, seed)
					// In-place updates of the conventional zones: staged
					// sectors of other zones, which no reset may touch.
					for i := 0; i < 3*o.base; i++ {
						lba := int64(i%o.base)*f.zoneCap + o.rng.Int63n(f.zoneCap-32)
						d, err := f.Write(o.at, lba, make([][]byte, 1+o.rng.Int63n(32)))
						if err != nil {
							t.Fatal(err)
						}
						if o.at, err = f.Flush(d, i%o.base); err != nil {
							t.Fatal(err)
						}
						o.sync("conventional write")
					}
					st.run(o)
					if err := o.f.CheckInvariants(); err != nil {
						t.Fatal(err)
					}
					resets += o.resets
					killed += o.killed
				}
			})
		}
	}
	if resets == 0 || killed == 0 {
		t.Fatalf("%d resets killed %d staged sectors: the check compared nothing", resets, killed)
	}
	t.Logf("%d resets killed %d staged sectors", resets, killed)
}
