package main

import (
	"fmt"
	"sort"

	"github.com/conzone/conzone/internal/obs"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
)

// runIOTraced is the traced run of one I/O workload. Every pass runs the
// same fixed command count on a fresh device:
//
//   - an untraced reference (the budget's base and the digest to match);
//   - the fully traced pass — timing backend and all three span levels — whose
//     digest must equal the reference's, which proves the wrapper made the
//     controller take the same paths and that the simulation repeats exactly;
//     it gives the Chrome trace, the counters and trace.overhead_frac;
//   - one pass per span level alone (step, host, ftl): spans that contain no
//     other span are not inflated by nested clock reads, so the self times
//     come from these;
//   - on randread, a pass with the emulator's own lifecycle recorder on.
//
// Then the unit-cost micro-drivers run and the budget table is printed.
func runIOTraced(spec ioSpec, o runOpts) *report {
	rep := newReport(spec.name, o)
	simOps := o.simOps(spec)

	// The single-level passes and the recorder pass run half the window.
	pass := func(tr *tracer, ops int64, recorder bool, verify bool) (*rig, measured, bool) {
		r, err := buildRig(spec, o, tr)
		if err != nil {
			rep.check("set-up", err)
			return nil, measured{}, false
		}
		if recorder {
			r.f.SetRecorder(obs.NewRecorder(0))
		}
		gen := spec.gen(r)
		r.warm(gen)
		m := r.measure(gen, ops, 0, 0, nil)
		r.finish(gen, rep, verify)
		return r, m, r.errs == 0
	}

	ref, mRef, ok := pass(nil, simOps, false, false)
	if !ok {
		return rep
	}
	tr := newTracer(levelAll)
	r, m, ok := pass(tr, simOps, false, true)
	if !ok {
		return rep
	}
	rep.Info["sim_window_ops"] = fmt.Sprint(simOps)
	rep.Info["trace_digest"] = fmt.Sprintf("%016x", r.simDigest)
	var mismatch error
	if r.simDigest != ref.simDigest || r.digest != ref.digest || r.end.now != ref.end.now {
		mismatch = fmt.Errorf("traced %016x/%016x at virtual %d, untraced %016x/%016x at %d",
			r.simDigest, r.digest, r.end.now, ref.simDigest, ref.digest, ref.end.now)
	}
	rep.check("traced-vs-untraced digest", mismatch)
	rep.check("Chrome trace", tr.writeChrome(o.outDir, spec.name))

	wall := best(mRef.perOp) // untraced wall ns per I/O, the budget's base
	rep.set("trace.overhead_frac", best(m.perOp)/wall-1)
	rep.set("driver.batches", float64(len(mRef.perOp)))
	rep.set("driver.batch_p99_ns_per_io", quantileOf(mRef.perOp, 0.99))

	// Self times from the single-level passes. Each number is a ratio taken
	// inside one batch and then the median over batches, so the slow drift
	// of a shared machine, which scales a whole batch, cancels out.
	//
	// A span's two clock reads cost `edge` each: one edge falls inside the
	// span (measured = true + edge) and one outside it (a traced batch =
	// untraced + 2 edge per span). The step-only pass gives edge in place:
	// a step span covers all of one I/O's work, so what the batch took
	// beyond its step spans is the outer edge.
	level := func(lv spanLevel, edge float64) (frac float64, ml measured, ok bool) {
		_, ml, ok = pass(newTracer(lv), simOps/2, false, false)
		if !ok {
			return 0, ml, false
		}
		per := make([]float64, len(ml.perOp))
		for i := range per {
			raw, spans := ml.levelNs[lv][i], ml.levelSpans[lv][i]
			if edge == 0 { // the step-only pass: solve for the edge
				per[i] = (ml.perOp[i] - raw) / spans
			} else { // share of the batch's untraced time spent inside the spans
				per[i] = (raw - edge*spans) / (ml.perOp[i] - 2*edge*spans)
			}
		}
		return median(per), ml, true
	}
	edge, _, ok := level(levelStep, 0)
	if !ok {
		return rep
	}
	hostFrac, mHost, ok := level(levelHost, edge)
	if !ok {
		return rep
	}
	ftlFrac, mFTL, ok := level(levelFTL, edge)
	if !ok {
		return rep
	}
	rep.Info["span_edge_ns"] = fmt.Sprintf("%.1f (cost of one clock read plus span bookkeeping, measured in place)", edge)
	driverSelf, hostSelf, ftlNs := wall*(1-hostFrac), wall*(hostFrac-ftlFrac), wall*ftlFrac
	rep.set("driver.self_ns_per_io", driverSelf)
	rep.set("host.self_ns_per_io", hostSelf)
	rep.set("ftl.span_ns_per_io", ftlNs)
	perCall := func(metric string, ml measured, n spanName) {
		if c := float64(ml.spanCount[n]); c > 0 {
			rep.set(metric, float64(ml.spanTotal[n])/c-edge)
		}
	}
	perCall("host.submit_ns_per_call", mHost, spHostSubmit)
	perCall("host.poll_ns_per_call", mHost, spHostPoll)
	perCall("ftl.read_ns_per_call", mFTL, spFTLRead)
	perCall("ftl.write_ns_per_call", mFTL, spFTLWrite)
	perCall("ftl.flush_ns_per_call", mFTL, spFTLFlush)
	perCall("ftl.reset_ns_per_call", mFTL, spFTLReset)
	perCall("ftl.stage_ns_per_call", mFTL, spFTLStage)
	perCall("ftl.drain_ns_per_call", mFTL, spFTLDrain)

	// Counters of the virtual-time window (source "C"): the layers' own
	// public counters, read before and after it.
	d := r.end.tel.Delta(r.start.tel)
	n := float64(simOps)
	kio := n / 1000
	elapsed := r.end.now.Sub(r.start.now)
	rep.set("driver.sim_kiops", n/(float64(elapsed)/1e9)/1e3)
	rep.set("driver.sim_p50_us", us(r.lat.Percentile(50)))
	rep.set("driver.sim_p99_us", us(r.lat.Percentile(99)))
	rep.set("driver.sim_p999_us", us(r.lat.Percentile(99.9)))
	rep.set("driver.allocs_per_io", float64(ref.end.mallocs-ref.start.mallocs)/n)
	rep.set("host.dispatched_per_io", float64(r.end.dispatched-r.start.dispatched)/n)
	rep.set("host.queue_full", float64(r.queueFull))
	rep.set("host.sim_queue_delay_p50_us", us(r.qdelay.Percentile(50)))
	rep.set("host.sim_queue_delay_p99_us", us(r.qdelay.Percentile(99)))
	rep.set("ftl.direct_pus_per_kio", float64(d.FTL.DirectPUs)/kio)
	rep.set("ftl.staged_sectors_per_kio", float64(d.FTL.StagedSectors)/kio)
	rep.set("ftl.combines_per_kio", float64(d.FTL.Combines)/kio)
	rep.set("ftl.premature_flushes_per_kio", float64(d.FTL.PrematureFlushes)/kio)
	rep.set("ftl.map_fetches_per_kio", float64(d.FTL.MapFetches)/kio)
	if d.FTL.MapFetches > 0 {
		rep.set("ftl.map_fetch_reads_per_fetch", float64(d.FTL.MapFetchReads)/float64(d.FTL.MapFetches))
	}
	rep.set("ftl.buffer_reads_per_kio", float64(d.FTL.BufferReads)/kio)
	rep.set("ftl.lost_ack_sectors", float64(r.f.Stats().LostAckSectors))
	rep.set("wbuf.full_drains_per_kio", float64(d.Buffers.FullDrain)/kio)
	rep.set("wbuf.evictions_per_kio", float64(d.Buffers.Evictions)/kio)
	rep.set("wbuf.take_drains_per_kio", float64(d.Buffers.TakeDrain)/kio)
	lookups := d.Cache.Hits + d.Cache.Misses
	if lookups > 0 {
		rep.set("l2pcache.hit_ratio", float64(d.Cache.Hits)/float64(lookups))
		rep.set("l2pcache.probes_per_lookup", float64(d.Cache.Probes)/float64(lookups))
	}
	rep.set("l2pcache.inserts_per_kio", float64(d.Cache.Inserts)/kio)
	rep.set("l2pcache.evictions_per_kio", float64(d.Cache.Evictions)/kio)
	rep.set("nand.page_reads_per_io", float64(d.NAND.PageReads)/n)
	rep.set("nand.pu_programs_per_kio", float64(d.NAND.PUPrograms)/kio)
	rep.set("nand.partial_programs_per_kio", float64(d.NAND.PartialPrograms)/kio)
	rep.set("nand.slc_page_programs_per_kio", float64(d.NAND.PageProgramsSLC)/kio)
	rep.set("nand.erases_per_kio", float64(d.NAND.Erases)/kio)
	if d.FTL.HostWrittenBytes > 0 {
		rep.set("nand.sim_waf", float64(d.NAND.BytesProgrammed)/float64(d.FTL.HostWrittenBytes))
	}
	reserves := float64(r.end.reserves - r.start.reserves)
	rep.set("sim.reserves_per_io", reserves/n)
	rep.set("sim.chip_util_max", r.end.chipUtil)
	rep.set("sim.channel_util_max", r.end.chanUtil)
	rep.set("slc.staged_per_kio", float64(d.Staging.Staged)/kio)
	rep.set("slc.migrated_per_kio", float64(d.Staging.Migrated)/kio)
	rep.set("slc.collections_per_kio", float64(d.Staging.Collections)/kio)
	if d.Staging.Erased > 0 {
		rep.set("slc.migrated_per_erased_sb", float64(d.Staging.Migrated)/float64(d.Staging.Erased))
	}

	// The emulator's own recorder switched on (randread only: the control).
	if spec.name == "randread" {
		if _, mObs, ok := pass(nil, simOps/2, true, false); ok {
			rep.set("obs.enabled_ns_per_io_delta", best(mObs.perOp)-wall)
		}
	}

	// Unit costs and the budget: calls per I/O (counters) x unit ns.
	if o.small {
		return rep
	}
	u, err := measureUnits(rep, o.seed)
	if err != nil {
		rep.check("unit costs", err)
		return rep
	}
	geo := r.cfg.Geometry
	puSectors := float64(geo.ProgramUnit / units.Sector)
	mapped := float64(d.FTL.DirectPUs)*puSectors + float64(d.FTL.StagedSectors) + float64(d.Staging.Migrated)
	writes := float64(d.FTL.HostWrittenBytes) / float64(units.Sector)
	invalidations := float64(d.FTL.DirectPUs + d.FTL.Combines + d.FTL.ZoneResets)
	simNs := reserves * u.reserve
	rows := []budgetRow{
		{"driver.self", driverSelf},
		{"host.self", hostSelf},
		{"ftl.self", 0}, // filled below: ftl's span minus what it hands down
		{"wbuf", float64(d.Buffers.Appended) * u.wbufAppend / n},
		{"l2pcache", (float64(d.Cache.Hits)*u.l2pHit + float64(d.Cache.Misses)*u.l2pMissInsert + invalidations*u.l2pInvalidate) / n},
		{"mapping", (float64(d.FTL.MapFetches)*u.mapEffective + mapped*u.mapSet +
			float64(d.FTL.DirectPUs)*puSectors/float64(r.cfg.FTL.ChunkSectors)*u.mapAggregate +
			float64(d.FTL.ZoneResets)*u.mapInvalidateZone) / n},
		{"nand", (u.nandCost(d.NAND, d.FTL.MapFetchReads, d.Staging.Erased, geo.Chips()) - simNs) / n},
		{"sim", simNs / n},
		{"slc", (float64(d.Staging.Staged)*u.slcAppend + float64(d.Staging.Migrated)*u.slcCollectPerSector +
			float64(d.Staging.Collections)*u.slcVictim) / n},
		{"zns", (writes*u.znsValidateCommit + float64(d.FTL.ZoneResets)*u.znsReset) / n},
	}
	var below float64
	for _, row := range rows[3:] {
		below += row.ns
		rep.set(row.name+".share", row.ns/wall)
	}
	rows[2].ns = ftlNs - below
	rep.set("ftl.self_ns_per_io", rows[2].ns)
	rep.Budget = budgetTable(spec.name, wall, rows)
	return rep
}

func us(d sim.Duration) float64 { return float64(d) / 1e3 }

func quantileOf(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q)
}
