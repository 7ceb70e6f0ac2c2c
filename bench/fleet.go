package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"github.com/conzone/conzone/internal/fleet"
)

// fleetDevicesPerCohort sizes fleet.DefaultSpec: 2 cohorts, 2000 devices.
const fleetDevicesPerCohort = 1000

// runFleet measures the device-level scaling axis: fleet.Run of a seeded
// population at workers = nproc, after a reference pass at workers = 1 whose
// digest every later pass must reproduce byte for byte. Failures are digest
// mismatches, run errors and devices that failed to build or run; I/O errors
// and power cuts inside the simulated population are its subject, not
// failures of the benchmark.
func runFleet(o runOpts) *report {
	rep := newReport("fleet", o)
	devices := fleetDevicesPerCohort
	if o.small {
		devices = 10
	}
	// Set-up is the spec (Validate builds every cohort's corner devices) and
	// the workers = 1 pass whose digest every timed pass must reproduce.
	type reference struct {
		spec *fleet.Spec
		res  *fleet.Result
		rate float64
	}
	ref, setup, err := startSetup(o, whole(func() (reference, error) {
		s := fleet.DefaultSpec(o.seed, devices)
		if err := s.Validate(); err != nil {
			return reference{}, err
		}
		t0 := time.Now()
		res, err := fleet.Run(&s, fleet.Options{Workers: 1})
		if err != nil {
			return reference{}, err
		}
		return reference{&s, res, float64(res.Fleet.Devices) / time.Since(t0).Seconds()}, nil
	}))
	if err != nil {
		rep.check("set-up", err)
		return rep
	}
	spec := ref.spec

	var tr *tracer
	budget := o.duration()
	if o.trace {
		tr = newTracer(levelAll)
		budget -= unitsTime
	}
	nproc := runtime.NumCPU()
	want := ref.res.Digest()
	// Virtual time of the typical device: medians over the population,
	// which a handful of worn, faulty or power-cut devices cannot move.
	var perOp, lat []float64
	for i := range ref.res.Devices {
		if w := &ref.res.Devices[i].Workload; w.Ops > 0 && w.Hist != nil {
			perOp = append(perOp, float64(w.Elapsed)/1e3/float64(w.Ops))
			lat = append(lat, float64(w.Hist.Sum())/1e3/float64(w.Hist.Count()))
		}
	}
	usPerOp, latUs := median(perOp), median(lat)
	ref.res = nil
	match := 1.0
	pass := func(workers int) float64 {
		var res *fleet.Result
		var err error
		took := span(tr, fmt.Sprintf("fleet.pass.w%d", workers), func() {
			res, err = fleet.Run(spec, fleet.Options{Workers: workers})
		})
		rep.check("fleet.Run", err)
		if err != nil {
			match = 0
			return 0
		}
		rep.attempt(int64(res.Fleet.Devices))
		if res.Fleet.Failed > 0 {
			rep.Failed += int64(res.Fleet.Failed)
			rep.Failures = append(rep.Failures, fmt.Sprintf("%d devices failed to build or run", res.Fleet.Failed))
		}
		var mismatch error
		if digest := res.Digest(); digest != want {
			mismatch = fmt.Errorf("workers=%d gave %s, the reference pass %s", workers, digest[:16], want[:16])
			match = 0
		}
		rep.check("fleet digest", mismatch)
		return float64(res.Fleet.Devices) / took.Seconds()
	}

	// The traced run also reports the single-worker rate.
	w1 := []float64{ref.rate}
	if o.trace && !o.small {
		w1 = append(w1, pass(1), pass(1))
	}
	var wn []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	began := time.Now()
	for n := 0; n < 3 || time.Since(began) < budget; n++ {
		setup.tick()
		runtime.GC() // untimed: one pass's garbage is not charged to the next
		wn = append(wn, pass(nproc))
		if o.small {
			break
		}
	}
	runtime.ReadMemStats(&ms1)
	setup.report(rep)
	total := float64(2 * devices)
	rep.Info["passes"] = fmt.Sprintf("%d timed at workers=%d, %d devices each", len(wn), nproc, 2*devices)
	rep.Info["digest"] = want

	if !o.trace {
		perDevice := make([]float64, len(wn))
		for i, r := range wn {
			perDevice[i] = 1e9 / r
		}
		rep.setBest("wall_ns_per_op", perDevice)
		rep.set("sim_us_per_op", usPerOp)
		rep.set("sim_lat_us", latUs)
		rep.set("host_mem_mib", peakRSSMiB())
		return rep
	}
	rep.setBestRate("fleet.devices_per_s", wn)
	rep.setBestRate("fleet.devices_per_s_w1", w1)
	rep.set("fleet.scaling_x", slices.Max(wn)/slices.Max(w1))
	rep.set("fleet.digest_match", match)
	rep.set("fleet.host_kib_per_device", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/total/float64(len(wn)))
	measureFleetUnits(rep, spec)
	if !o.small {
		if _, err := measureUnits(rep, o.seed); err != nil {
			rep.check("unit costs", err)
		}
	}
	rep.check("Chrome trace", tr.writeChrome(o.outDir, "fleet"))
	return rep
}
