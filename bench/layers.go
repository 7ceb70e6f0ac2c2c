package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/fleet"
	"github.com/conzone/conzone/internal/ftl"
	"github.com/conzone/conzone/internal/host"
	"github.com/conzone/conzone/internal/l2pcache"
	"github.com/conzone/conzone/internal/mapping"
	"github.com/conzone/conzone/internal/nand"
	"github.com/conzone/conzone/internal/obs"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/slc"
	"github.com/conzone/conzone/internal/stats"
	"github.com/conzone/conzone/internal/telemetry"
	"github.com/conzone/conzone/internal/units"
	"github.com/conzone/conzone/internal/wbuf"
	"github.com/conzone/conzone/internal/workload"
	"github.com/conzone/conzone/internal/zns"
)

// Unit costs (source "U" in README.md): micro-drivers that call one layer's
// public functions directly on state built through the layer's public
// constructor, timed like the workloads — the fastest batch's wall ns per
// call. They are the price list the budget table multiplies
// the per-I/O call counts with.

// sink keeps results alive so the compiler cannot drop a measured call.
var sink int64

// unitCost runs batches of calls and returns the per-call wall ns of each
// batch. prep, when non-nil, runs untimed before every batch.
func unitCost(batches, calls int, prep func(b int), op func(i int)) []float64 {
	out := make([]float64, 0, batches)
	i := 0
	for b := 0; b < batches; b++ {
		if prep != nil {
			prep(b)
		}
		t0 := time.Now()
		for k := 0; k < calls; k++ {
			op(i)
			i++
		}
		out = append(out, float64(time.Since(t0))/float64(calls))
	}
	return out
}

// units is the measured price list. Costs of layers that call further down
// are kept both ways: inclusive as measured, and with the lower layers'
// measured cost taken out.
type unitCosts struct {
	reserve float64

	readPage, programPU, programSLC, programSLCPage, erase, eraseSLC, mapRead float64
	nilProgramSLC, nilProgramSLCPage, nilEraseSLC                             float64 // without payloads

	wbufAppend float64

	l2pHit, l2pMissInsert, l2pInvalidate float64

	mapEffective, mapSet, mapAggregate, mapInvalidateZone float64

	slcAppend, slcCollectPerSector, slcVictim float64 // lower layers taken out

	znsValidateCommit, znsReset float64

	hostStub, statsRecord, obsDisabled, telemetryCollect, ftlNewMs float64
}

// nandCost prices a NAND counter delta (sim included): what the array's
// own functions cost for that much work. slcSBs SLC superblocks were erased
// (one block per chip each); the other erases hit normal blocks.
func (u *unitCosts) nandCost(d nand.Counters, mapReads, slcSBs int64, chips int) float64 {
	slcErases := slcSBs * int64(chips)
	return float64(d.PageReads-mapReads)*u.readPage + float64(mapReads)*u.mapRead +
		float64(d.PUPrograms)*u.programPU + float64(d.PartialPrograms)*u.programSLC +
		float64(d.PageProgramsSLC)*u.programSLCPage +
		float64(d.Erases-slcErases)*u.erase + float64(slcErases)*u.eraseSLC
}

func sectorPayloads(n int) [][]byte {
	buf := make([]byte, int64(n)*units.Sector)
	out := make([][]byte, n)
	for i := range out {
		out[i] = buf[int64(i)*units.Sector : int64(i+1)*units.Sector]
	}
	return out
}

// measureUnits runs every micro-driver and records the exported unit costs
// in rep. It takes about two seconds.
func measureUnits(rep *report, seed uint64) (*unitCosts, error) {
	runtime.GC() // start from a heap without the workload's garbage
	u := &unitCosts{}
	cfg := config.Paper()
	geo := cfg.Geometry
	r := newRNG(seed ^ 0xA11CE)
	lpas := make([]int64, 4096) // random LPAs inside the 1 GiB read span
	for i := range lpas {
		lpas[i] = r.intn(units.GiB / units.Sector)
	}
	cost := func(name string, xs []float64) float64 {
		rep.setBest(name, xs)
		return best(xs)
	}

	// sim: one Reserve on a resource whose horizon keeps moving.
	{
		res := sim.NewResource("unit")
		var at sim.Time
		u.reserve = cost("sim.reserve_ns", unitCost(16, 1<<16, nil, func(int) {
			_, end := res.Reserve(at, 100)
			at += 60
			sink += int64(end)
		}))
	}

	// nand: reads and map reads, then rounds of programming one block on
	// every chip and erasing it, for normal program units, SLC sectors and
	// SLC pages, with real payloads (data is copied into media storage, as
	// in the data-carrying workloads). The first round of each grows the
	// payload slabs and is dropped; later rounds reuse them, as a workload
	// in steady state does. One more round of each SLC shape without
	// payloads prices the array's bookkeeping alone (the slc drivers below
	// run without payloads and take that part out).
	{
		arr, err := nand.NewArray(geo, cfg.Latency, sim.NewEngine())
		if err != nil {
			return nil, err
		}
		chips, blk := geo.Chips(), geo.FirstNormalBlock()
		var at sim.Time
		u.readPage = cost("nand.read_page_ns", unitCost(16, 1<<14, nil, func(i int) {
			done, _ := arr.ReadPage(at, i%chips, blk+(i>>2)%geo.NormalBlocks(), (i>>9)%geo.PagesPerBlock, units.Sector)
			at += 500
			sink += int64(done)
		}))
		u.mapRead = cost("nand.map_read_ns", unitCost(16, 1<<14, nil, func(i int) {
			done, _ := arr.ChargeMapRead(at, i%chips)
			at += 500
			sink += int64(done)
		}))
		must := func(what string, done sim.Time, err error) {
			if err != nil {
				panic(fmt.Sprintf("bench: unit %s: %v", what, err))
			}
			at += 2000
			sink += int64(done)
		}
		// rounds fills block on every chip with `per` programs per chip,
		// then erases it; it returns the per-call ns of each round.
		rounds := func(n, block, per int, program func(chip, k int)) (progs, erases []float64) {
			for round := 0; round < n; round++ {
				p := unitCost(1, per*chips, nil, func(i int) { program(i%chips, i/chips) })
				e := unitCost(1, chips, nil, func(i int) {
					done, err := arr.Erase(at, i, block)
					must("Erase", done, err)
				})
				if round > 0 || n == 1 {
					progs, erases = append(progs, p...), append(erases, e...)
				}
			}
			return
		}
		pu := sectorPayloads(int(geo.ProgramUnit / units.Sector))
		progs, erases := rounds(13, blk, geo.PUsPerBlock(), func(chip, k int) {
			_, done, err := arr.ProgramPU(at, chip, blk, k*geo.PagesPerPU(), pu)
			must("ProgramPU", done, err)
		})
		u.programPU = cost("nand.program_pu_ns", progs)
		u.erase = cost("nand.erase_ns", erases)

		spp := geo.SectorsPerPage()
		slcSector := func(payload []byte) func(chip, k int) {
			return func(chip, k int) {
				_, done, err := arr.ProgramSLCSector(at, chip, 0, k/spp, k%spp, payload)
				must("ProgramSLCSector", done, err)
			}
		}
		slcPage := func(payload [][]byte) func(chip, k int) {
			return func(chip, k int) {
				_, done, err := arr.ProgramSLCPage(at, chip, 0, k, payload)
				must("ProgramSLCPage", done, err)
			}
		}
		progs, erases = rounds(7, 0, geo.SLCPagesPerBlock*spp, slcSector(sectorPayloads(1)[0]))
		u.programSLC = cost("nand.program_slc_ns", progs)
		u.eraseSLC = best(erases)
		progs, _ = rounds(7, 0, geo.SLCPagesPerBlock, slcPage(sectorPayloads(spp)))
		u.programSLCPage = best(progs)
		progs, erases = rounds(1, 0, geo.SLCPagesPerBlock*spp, slcSector(nil))
		u.nilProgramSLC, u.nilEraseSLC = progs[0], erases[0]
		progs, _ = rounds(1, 0, geo.SLCPagesPerBlock, slcPage(make([][]byte, spp)))
		u.nilProgramSLCPage = progs[0]
	}

	// wbuf: one-sector appends of one zone; every full buffer drains.
	{
		m, err := wbuf.New(cfg.FTL.NumWriteBuffers, geo.SuperpageBytes()/units.Sector)
		if err != nil {
			return nil, err
		}
		p := sectorPayloads(1)
		u.wbufAppend = cost("wbuf.append_ns", unitCost(16, 1<<14, nil, func(i int) {
			fl, _ := m.Append(0, int64(i), p)
			sink += int64(len(fl))
		}))
	}

	// mapping and l2pcache on a paper-sized table.
	{
		f, err := cfg.NewConZone()
		if err != nil {
			return nil, err
		}
		zsec, total := f.ZoneCapSectors(), f.TotalSectors()
		newTable := func() *mapping.Table {
			t, err := mapping.NewTable(mapping.Config{TotalSectors: total, ChunkSectors: cfg.FTL.ChunkSectors, ZoneSectors: zsec, AggLimit: mapping.PSN(total)})
			if err != nil {
				panic(fmt.Sprintf("bench: unit table: %v", err))
			}
			return t
		}
		t := newTable()
		u.mapSet = cost("mapping.set_ns", unitCost(16, 1<<14, nil, func(i int) {
			l := int64(i) % total
			_ = t.Set(l, mapping.PSN(l))
		}))
		u.mapEffective = cost("mapping.effective_ns", unitCost(16, 1<<14, nil, func(i int) {
			_, _, psn, _ := t.Effective(lpas[i&4095])
			sink += int64(psn)
		}))
		// Aggregating a chunk that has just been completely mapped.
		u.mapAggregate = cost("mapping.aggregate_ns", unitCost(16, 16, nil, func(i int) {
			if t.TryAggregateChunk(int64(i) * cfg.FTL.ChunkSectors) {
				sink++
			}
		}))
		u.mapInvalidateZone = cost("mapping.invalidate_zone_ns", unitCost(16, 4, nil, func(i int) {
			_ = t.InvalidateZone(int64(i%16) * zsec)
		}))

		hit, err := l2pcache.New(cfg.FTL.L2PCacheBytes, cfg.FTL.L2PEntryBytes, newTable())
		if err != nil {
			return nil, err
		}
		for z := int64(0); z < units.GiB/units.Sector/zsec; z++ {
			hit.Insert(mapping.Zone, z*zsec, mapping.PSN(z*zsec), false)
		}
		u.l2pHit = cost("l2pcache.lookup_hit_ns", unitCost(16, 1<<16, nil, func(i int) {
			psn, _ := hit.Lookup(lpas[i&4095])
			sink += int64(psn)
		}))
		// A program unit's worth of invalidation over a nearly empty cache:
		// what every direct program and combine of a write workload pays.
		few, err := l2pcache.New(cfg.FTL.L2PCacheBytes, cfg.FTL.L2PEntryBytes, newTable())
		if err != nil {
			return nil, err
		}
		for c := int64(0); c < 4; c++ {
			few.Insert(mapping.Chunk, c*cfg.FTL.ChunkSectors, mapping.PSN(c*cfg.FTL.ChunkSectors), false)
		}
		puSectors := geo.ProgramUnit / units.Sector
		u.l2pInvalidate = cost("l2pcache.invalidate_range_ns", unitCost(16, 1<<12, nil, func(i int) {
			few.InvalidateRange(units.GiB/units.Sector+int64(i%1024)*puSectors, puSectors)
		}))
		miss, err := l2pcache.New(cfg.FTL.L2PCacheBytes, cfg.FTL.L2PEntryBytes, newTable())
		if err != nil {
			return nil, err
		}
		mr := newRNG(seed ^ 0xCAFE)
		u.l2pMissInsert = cost("l2pcache.miss_insert_ns", unitCost(16, 1<<14, nil, func(int) {
			l := mr.intn(units.GiB / units.Sector)
			if _, ok := miss.Lookup(l); !ok {
				miss.Insert(mapping.Page, l, mapping.PSN(l), false)
			}
		}))
	}

	// slc: staging appends, then garbage collection of half-valid
	// superblocks, without payloads. The array's bookkeeping inside both is
	// priced with the payload-free nand units above and taken out, so these
	// are the staging layer's own costs.
	{
		nilNand := func(d nand.Counters, sbs int64) float64 {
			return float64(d.PageReads)*u.readPage + float64(d.PartialPrograms)*u.nilProgramSLC +
				float64(d.PageProgramsSLC)*u.nilProgramSLCPage + float64(sbs*int64(geo.Chips()))*u.nilEraseSLC
		}
		var appends, collects, victims []float64
		for round := 0; round < 6; round++ {
			arr, err := nand.NewArray(geo, cfg.Latency, sim.NewEngine())
			if err != nil {
				return nil, err
			}
			blocks := make([]int, geo.SLCBlocks)
			for i := range blocks {
				blocks[i] = i
			}
			reg, err := slc.NewRegion(arr, blocks)
			if err != nil {
				return nil, err
			}
			var at sim.Time
			fill := int(reg.SectorsPerSuperblock()) * (reg.SuperblockCount() - 3)
			c0 := arr.Counters()
			ws := make([]slc.Write, 1)
			idxs := make([]int64, 0, fill)
			xs := unitCost(1, fill, nil, func(i int) {
				ws[0] = slc.Write{LPA: int64(i)}
				got, _, done, err := reg.Append(at, ws)
				if err != nil {
					panic(fmt.Sprintf("bench: unit slc.Append: %v", err))
				}
				idxs = append(idxs, got[0])
				at = done
			})
			appends = append(appends, xs[0]-nilNand(arr.Counters().Delta(c0), 0)/float64(fill))
			for i, idx := range idxs { // leave every other sector live
				if i%2 == 0 {
					_ = reg.Invalidate(idx)
				}
			}
			victims = append(victims, unitCost(1, 1<<12, nil, func(int) { sink += int64(reg.Victim()) })...)
			c0 = arr.Counters()
			before := reg.Stats()
			t0 := time.Now()
			for n := 0; n < reg.SuperblockCount()-4; n++ {
				done, err := reg.Collect(at, reg.Victim(), nopRelocator{})
				if err != nil {
					panic(fmt.Sprintf("bench: unit slc.Collect: %v", err))
				}
				at = done
			}
			wall := float64(time.Since(t0))
			did := reg.Stats().Delta(before)
			collects = append(collects, (wall-nilNand(arr.Counters().Delta(c0), did.Erased))/float64(did.Migrated))
		}
		u.slcAppend = cost("slc.append_ns", appends)
		u.slcCollectPerSector = cost("slc.collect_ns_per_sector", collects)
		u.slcVictim = cost("slc.victim_ns", victims)
	}

	// zns: validate + commit of one-sector writes walking every zone, and
	// resets of the zones just filled.
	{
		f, err := cfg.NewConZone()
		if err != nil {
			return nil, err
		}
		mgr, err := zns.NewManager(zns.Config{NumZones: f.NumZones(), ZoneSize: f.ZoneCapSectors(), ZoneCapacity: f.ZoneCapSectors()})
		if err != nil {
			return nil, err
		}
		total := f.TotalSectors()
		var commits, resets []float64
		for round := 0; round < 4; round++ {
			commits = append(commits, unitCost(4, int(total/4), nil, func(i int) {
				l := int64(i) % total
				if _, err := mgr.ValidateWrite(l, 1); err == nil {
					_ = mgr.CommitWrite(l, 1)
				}
			})...)
			resets = append(resets, unitCost(4, f.NumZones()/4, nil, func(i int) { _ = mgr.Reset(i % f.NumZones()) })...)
		}
		u.znsValidateCommit = cost("zns.validate_commit_ns", commits)
		u.znsReset = cost("zns.reset_ns", resets)
	}

	// host: Submit + PollInto of reads over a backend that completes at once.
	{
		ctrl, err := host.New(stubBackend{}, host.Config{Queues: 1, Depth: 18})
		if err != nil {
			return nil, err
		}
		comps := make([]host.Completion, 0, 4)
		var at sim.Time
		inflight := 0
		u.hostStub = cost("host.stub_ns_per_io", unitCost(16, 1<<15, nil, func(i int) {
			if inflight >= 16 {
				comps = ctrl.PollInto(0, 1, comps[:0])
				inflight -= len(comps)
			}
			if _, err := ctrl.Submit(at, 0, host.Request{Op: host.OpRead, LBA: int64(i & 1023), N: 1}); err == nil {
				inflight++
			}
			at += 1000
		}))
	}

	// stats / obs / telemetry / ftl.New.
	{
		h := stats.NewHistogram()
		u.statsRecord = cost("stats.record_ns", unitCost(16, 1<<16, nil, func(i int) {
			h.Record(time.Duration(20_000 + i&0xFFFF))
		}))
		var rec *obs.Recorder // disabled: the path every I/O takes today
		u.obsDisabled = cost("obs.disabled_record_ns", unitCost(16, 1<<16, nil, func(i int) {
			rec.Record(obs.Event{Stage: obs.StageHostQueue, Begin: sim.Time(i), End: sim.Time(i + 1), LBA: int64(i)})
		}))
		var f *ftl.FTL
		var news []float64
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			var err error
			if f, err = cfg.NewConZone(); err != nil {
				return nil, err
			}
			news = append(news, float64(time.Since(t0))/1e6)
		}
		u.ftlNewMs = cost("ftl.new_ms", news)
		u.telemetryCollect = cost("telemetry.collect_ns", unitCost(16, 1<<12, nil, func(int) {
			sink += telemetry.Collect(f).NAND.PageReads
		}))
	}
	return u, nil
}

// measurePaperUnits times the pieces only paperfigs runs: the workload
// runner and the three comparator device models, each on 4 KiB random reads
// of a prefilled 64 MiB range, and fleet device sampling.
func measurePaperUnits(rep *report, seed uint64) error {
	cfg := config.Paper()
	// The legacy model's reads cost ~0.1 ms of wall time each (its miss path
	// scans), so the job is short.
	const span, ops = 64 * units.MiB, 2_000
	job := workload.Job{Name: "unit", Pattern: workload.RandRead, BlockBytes: 4 * units.KiB, NumJobs: 1,
		RangeBytes: span, TotalBytesPerJob: ops * 4 * units.KiB, Seed: seed}
	devs := []struct {
		metric string
		build  func() (workload.Device, error)
	}{
		{"workload.run_ns_per_op", func() (workload.Device, error) { return cfg.NewConZone() }},
		{"legacy.wall_ns_per_io", func() (workload.Device, error) { return cfg.NewLegacy() }},
		{"femu.wall_ns_per_io", func() (workload.Device, error) { return cfg.NewFEMU() }},
		{"confzns.wall_ns_per_io", func() (workload.Device, error) { return cfg.NewConfZNS() }},
	}
	for _, d := range devs {
		dev, err := d.build()
		if err != nil {
			return fmt.Errorf("%s: %w", d.metric, err)
		}
		at, err := workload.Prefill(dev, 0, 0, span, false)
		if err != nil {
			return fmt.Errorf("%s: prefill: %w", d.metric, err)
		}
		var xs []float64
		for i := 0; i < 3; i++ {
			j := job
			j.StartAt = at
			t0 := time.Now()
			res, err := workload.Run(dev, j)
			if err != nil {
				return fmt.Errorf("%s: %w", d.metric, err)
			}
			xs = append(xs, float64(time.Since(t0))/float64(res.Ops))
			at = at.Add(res.Elapsed)
		}
		rep.setBest(d.metric, xs)
	}
	return nil
}

// measureFleetUnits times drawing one device's parameters from the spec.
func measureFleetUnits(rep *report, spec *fleet.Spec) {
	n := spec.Cohorts[0].Devices
	rep.setBest("fleet.sample_device_us", scale(unitCost(16, 256, nil, func(i int) {
		sink += fleet.SampleDevice(spec, i%len(spec.Cohorts), i%n).PreWearErases
	}), 1e-3))
}

func scale(xs []float64, k float64) []float64 {
	for i := range xs {
		xs[i] *= k
	}
	return xs
}

// nopRelocator accepts every GC move (the micro-driver has no mapping).
type nopRelocator struct{}

func (nopRelocator) Relocate(lpa, oldIdx, newIdx int64) error { return nil }

// stubBackend completes every command at its dispatch instant.
type stubBackend struct{}

func (stubBackend) Read(at sim.Time, lba, n int64) ([][]byte, sim.Time, error) {
	return nil, at, nil
}
func (stubBackend) ReadInto(at sim.Time, lba, n int64, dst [][]byte) (sim.Time, error) {
	return at, nil
}
func (stubBackend) Write(at sim.Time, lba int64, p [][]byte) (sim.Time, error) { return at, nil }
func (stubBackend) Append(at sim.Time, zone int, p [][]byte) (int64, sim.Time, error) {
	return 0, at, nil
}
func (stubBackend) Flush(at sim.Time, zone int) (sim.Time, error)      { return at, nil }
func (stubBackend) FlushAll(at sim.Time) (sim.Time, error)             { return at, nil }
func (stubBackend) ResetZone(at sim.Time, zone int) (sim.Time, error)  { return at, nil }
func (stubBackend) CloseZone(at sim.Time, zone int) (sim.Time, error)  { return at, nil }
func (stubBackend) FinishZone(at sim.Time, zone int) (sim.Time, error) { return at, nil }
func (stubBackend) NumZones() int                                      { return 96 }
func (stubBackend) ZoneCapSectors() int64                              { return 4096 }
func (stubBackend) TotalSectors() int64                                { return 96 * 4096 }
func (stubBackend) Recorder() *obs.Recorder                            { return nil }

// budgetRow is one line of the budget table.
type budgetRow struct {
	name string
	ns   float64
}

// budgetTable renders where one I/O's wall time goes, with the part no row
// accounts for shown as its own line.
func budgetTable(workload string, wall float64, rows []budgetRow) []string {
	out := []string{fmt.Sprintf("budget table: %s, wall %.1f ns per I/O (untraced reference pass)", workload, wall)}
	var sum float64
	for _, r := range rows {
		out = append(out, fmt.Sprintf("  %-14s %9.1f ns %6.1f%%", r.name, r.ns, 100*r.ns/wall))
		sum += r.ns
	}
	return append(out, fmt.Sprintf("  %-14s %9.1f ns %6.1f%%", "unattributed", wall-sum, 100*(wall-sum)/wall))
}
