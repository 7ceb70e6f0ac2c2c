package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/experiments"
	"github.com/conzone/conzone/internal/refdata"
	"github.com/conzone/conzone/internal/units"
)

// paperfigs is the other clock: the paper's Table II and Fig. 6a/6b/7/8
// regenerated at paper scale, every pass checked against internal/refdata.
// It is the only workload that runs internal/workload, stats, 512 KiB
// multi-sector I/O and the legacy/femu comparators, and it drives the FTL
// directly, so host changes must not move it.
//
// The experiments fix their own workload seeds; -seed reaches them through
// the comparators' VM-exit jitter streams and a small jitter of the
// random-read volumes, so inputs still follow the seed.

// unitsTime is what a traced run sets aside for the unit-cost micro-drivers.
const unitsTime = 3 * time.Second

// span runs fn inside a phase span when tracing, and returns its wall time.
func span(tr *tracer, name string, fn func()) time.Duration {
	if tr != nil {
		n := tr.phase(name)
		tr.begin(n)
		defer tr.end(n, 0)
	}
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

func spanSecs(tr *tracer, name string, fn func()) float64 { return span(tr, name, fn).Seconds() }

// paperExperiments are the pieces of a pass, in the order it runs them.
var paperExperiments = []string{"table2", "fig6a", "fig6b", "fig7", "fig8"}

// fidelity is one pass's deviations from the paper: per claim the signed
// (measured - paper) / tolerance, so |v| <= 1 means the claim is in band.
type fidelity struct {
	claims    map[string]float64
	table2Dev float64 // max relative deviation of a Table II latency
	usPerRead float64 // mean virtual us per 4 KiB random read, Fig. 7/8 points
	usPerSeq  float64 // mean virtual us per 512 KiB sequential I/O, ConZone and FEMU cells of Fig. 6a
}

func (f fidelity) maxDev() float64 {
	m := f.table2Dev
	for _, v := range f.claims {
		m = math.Max(m, math.Abs(v))
	}
	return m
}

// paperSetup derives the device configuration and experiment volumes from
// the seed.
func paperSetup(o runOpts) (config.DeviceConfig, experiments.Options) {
	cfg, opt := config.Paper(), experiments.Default()
	if o.small {
		opt = experiments.Quick()
	}
	cfg.FEMU.Seed = o.seed | 1
	cfg.ConfZNS.Seed = o.seed<<1 | 1
	opt.RandReadOps += int64(o.seed % 509)
	opt.WarmupOps += int64((o.seed >> 9) % 509)
	return cfg, opt
}

func runPaperfigs(o runOpts) *report {
	rep := newReport("paperfigs", o)
	type prepared struct {
		cfg config.DeviceConfig
		opt experiments.Options
		fid fidelity
	}
	// Set-up is a complete pass, which grows the heap to its working size
	// and gives the virtual-time numbers every timed pass must reproduce.
	p, setup, err := startSetup(o, func() (prepared, []float64, error) {
		cfg, opt := paperSetup(o)
		fid, took := paperPass(rep, nil, cfg, opt, o.small)
		return prepared{cfg, opt, fid}, took, nil
	})
	if err != nil {
		rep.check("set-up", err)
		return rep
	}

	var tr *tracer
	budget := o.duration()
	if o.trace {
		tr = newTracer(levelAll)
		budget -= unitsTime
	}
	var passes [][]float64 // per pass, the seconds of each experiment
	// The numbers reported are the first pass's; later passes must
	// reproduce its virtual-time numbers exactly.
	first := p.fid
	minPasses := 3
	if o.small {
		minPasses = 1
	}
	began := time.Now()
	for n := 0; n < minPasses || time.Since(began) < budget; n++ {
		var fid fidelity
		var took []float64
		setup.tick()
		runtime.GC() // untimed: one pass's garbage is not charged to the next
		span(tr, "paperfigs.pass", func() { fid, took = paperPass(rep, tr, p.cfg, p.opt, o.small) })
		if fid.usPerRead != first.usPerRead || fid.usPerSeq != first.usPerSeq {
			rep.failf("pass %d: %.9g and %.9g virtual us per I/O, the set-up pass %.9g and %.9g: virtual time does not repeat",
				n, fid.usPerRead, fid.usPerSeq, first.usPerRead, first.usPerSeq)
		}
		passes = append(passes, took)
	}
	setup.report(rep)
	rep.Info["passes"] = fmt.Sprint(len(passes))
	rep.Info["fidelity_max_dev"] = fmt.Sprintf("%.4f (<= 1: every claim in band)", first.maxDev())

	if !o.trace {
		rep.setBestSum("wall_ns_per_op", passes, 1e9)
		rep.set("sim_us_per_op", first.usPerRead)
		rep.set("sim_lat_us", first.usPerSeq)
		rep.set("host_mem_mib", peakRSSMiB())
		return rep
	}
	rep.setBestSum("experiments.suite_wall_s", passes, 1)
	for i, name := range paperExperiments {
		col := make([]float64, len(passes))
		for n, took := range passes {
			col[n] = took[i]
		}
		rep.setBest("experiments."+name+"_s", col)
	}
	rep.set("fidelity.max_dev", first.maxDev())
	rep.set("fidelity.table2_max_dev", first.table2Dev)
	for id, v := range first.claims {
		rep.set("fidelity."+id, v)
	}
	if !o.small {
		if _, err := measureUnits(rep, o.seed); err != nil {
			rep.check("unit costs", err)
		}
		rep.check("comparator unit costs", measurePaperUnits(rep, o.seed))
	}
	rep.check("Chrome trace", tr.writeChrome(o.outDir, "paperfigs"))
	return rep
}

// paperPass runs the five experiments once. Each is one attempt; it fails
// when it errors or when a claim is out of band (Pass == false). The smoke
// scale shrinks the volumes below what the claims hold for, so there only
// errors count.
func paperPass(rep *report, tr *tracer, cfg config.DeviceConfig, opt experiments.Options, small bool) (fidelity, []float64) {
	fid := fidelity{claims: map[string]float64{}}
	took := make([]float64, len(paperExperiments))
	verdict := func(name string, pass bool, checks []string, err error) {
		switch {
		case err != nil:
			rep.check(name, err)
		case !pass && !small:
			rep.check(name, fmt.Errorf("out of band: %v", checks))
		default:
			rep.check(name, nil)
		}
	}
	claim := func(c refdata.Claim, measured float64) {
		fid.claims[c.ID] = (measured - c.Value) / c.Tolerance
	}

	took[0] = spanSecs(tr, "experiments.table2", func() {
		rows, err := experiments.RunTable2(cfg)
		if err == nil {
			err = experiments.VerifyTable2(rows)
		}
		for _, r := range rows {
			want := r.Paper + r.TransferOverhead
			fid.table2Dev = math.Max(fid.table2Dev, math.Abs(float64(r.Measured-want))/float64(want))
		}
		verdict("table2", true, nil, err)
	})
	took[1] = spanSecs(tr, "experiments.fig6a", func() {
		res, err := experiments.RunFig6a(cfg, opt)
		verdict("fig6a", res.Pass, res.Checks, err)
		if err != nil || len(res.Rows) != 4 {
			return
		}
		cz, lg, fm := res.Rows[1], res.Rows[2], res.Rows[3]
		// The legacy comparator's read bandwidth differs in the fifth digit
		// from run to run of one seed, so it stays out of the number that must
		// repeat exactly; its claims below are held to their tolerance only.
		for _, row := range []experiments.Fig6aRow{cz, fm} {
			for _, mibps := range []float64{row.WriteST, row.WriteMT, row.ReadST, row.ReadMT} {
				fid.usPerSeq += 0.5e6 / mibps / 8 // 512 KiB at mibps MiB/s
			}
		}
		m := map[string]float64{
			"fig6a-write-vs-legacy":   cz.WriteST / lg.WriteST,
			"fig6a-read-st-vs-legacy": cz.ReadST / lg.ReadST,
			"fig6a-read-mt-vs-legacy": cz.ReadMT / lg.ReadMT,
			"fig6a-femu-write-high":   fm.WriteST / cz.WriteST,
			"fig6a-femu-read-st-low":  fm.ReadST / cz.ReadST,
		}
		for _, c := range refdata.Fig6a() {
			claim(c, m[c.ID])
		}
	})
	took[2] = spanSecs(tr, "experiments.fig6b", func() {
		res, err := experiments.RunFig6b(cfg, opt)
		verdict("fig6b", res.Pass, res.Checks, err)
		if err != nil {
			return
		}
		m := map[string]float64{
			"fig6b-bandwidth": res.NoConflictBW / res.ConflictBW,
			"fig6b-wa":        1 - res.NoConflictWAF/res.ConflictWAF,
		}
		for _, c := range refdata.Fig6b() {
			claim(c, m[c.ID])
		}
	})
	var reads []float64
	took[3] = spanSecs(tr, "experiments.fig7", func() {
		res, err := experiments.RunFig7(cfg, opt)
		verdict("fig7", res.Pass, res.Checks, err)
		if err != nil {
			return
		}
		kiops := map[string]float64{}
		for _, p := range res.Points {
			kiops[fmt.Sprint(p.Mapping, p.Range)] = p.KIOPS
			reads = append(reads, 1000/p.KIOPS)
			if p.Mapping == "hybrid" && p.Range == units.GiB {
				t := refdata.Fig7HybridTail
				fid.claims["fig7-hybrid-tail"] = float64(p.P99-t.Target) / float64(t.Tolerance)
			}
		}
		drop := func(mapping string, rng int64) float64 {
			return 1 - kiops[fmt.Sprint(mapping, rng)]/kiops[fmt.Sprint(mapping, experiments.Fig7Ranges[0])]
		}
		m := map[string]float64{
			"fig7-page-16mib":  drop("page", experiments.Fig7Ranges[1]),
			"fig7-page-1gib":   drop("page", experiments.Fig7Ranges[2]),
			"fig7-hybrid-flat": drop("hybrid", experiments.Fig7Ranges[2]),
		}
		for _, c := range refdata.Fig7() {
			claim(c, m[c.ID])
		}
	})
	took[4] = spanSecs(tr, "experiments.fig8", func() {
		res, err := experiments.RunFig8(cfg, opt)
		verdict("fig8", res.Pass, res.Checks, err)
		if err != nil {
			return
		}
		kiops := map[string]float64{}
		for _, p := range res.Points {
			kiops[p.Strategy] = p.KIOPS
			reads = append(reads, 1000/p.KIOPS)
		}
		m := map[string]float64{
			"fig8-multiple-kiops": 1 - kiops["MULTIPLE"]/kiops["BITMAP"],
			"fig8-pinned-close":   kiops["PINNED"] / kiops["BITMAP"],
		}
		for _, c := range refdata.Fig8() {
			claim(c, m[c.ID])
		}
	})
	for _, r := range reads {
		fid.usPerRead += r / float64(len(reads))
	}
	return fid, took
}
