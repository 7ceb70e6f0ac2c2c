package experiments

import (
	"reflect"
	"runtime"
	"testing"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/workload"
)

// TestFig6aComparatorReadsRepeat runs the Fig. 6(a) read cells — prefill,
// then a single-thread and a four-thread 512 KiB sequential scan — of the
// three comparator devices twice each with one seed and requires identical
// results, histogram included. A 512 KiB read covers 32 flash pages on four
// chips and two channels, so the result depends on the order the pages are
// issued in: issued from a Go map, the legacy bandwidth moved in the fifth
// digit from run to run.
func TestFig6aComparatorReadsRepeat(t *testing.T) {
	cfg := config.Paper()
	opt := Quick()
	region, err := fitRegion(cfg, opt.ReadRegion)
	if err != nil {
		t.Fatal(err)
	}
	cells := func(build func() (workload.Device, error)) []workload.Result {
		dev, err := build()
		if err != nil {
			t.Fatal(err)
		}
		at, err := workload.Prefill(dev, 0, 0, region, false)
		if err != nil {
			t.Fatal(err)
		}
		var out []workload.Result
		for _, jobs := range []int{1, 4} {
			r, err := workload.Run(dev, seqJob(workload.SeqRead, jobs, region, opt.ReadBytes, opt, 13, at))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, r)
		}
		return out
	}
	for _, c := range []struct {
		name  string
		build func() (workload.Device, error)
	}{
		{"legacy", func() (workload.Device, error) { return cfg.NewLegacy() }},
		{"femu", func() (workload.Device, error) { return cfg.NewFEMU() }},
		{"confzns", func() (workload.Device, error) { return cfg.NewConfZNS() }},
	} {
		first, second := cells(c.build), cells(c.build)
		for i := range first {
			if !reflect.DeepEqual(first[i], second[i]) {
				t.Errorf("%s %d-thread read cell differs between two runs of one seed:\n first  %+v\n second %+v",
					c.name, first[i].Threads, first[i], second[i])
			}
		}
	}
}

// TestFigureArmsIndependentOfProcs runs the four figures whose arms run
// side by side — Fig. 6(a)'s emulator series, Fig. 6(b)'s conflict and
// no-conflict arms, Fig. 7's mapping × range points, Fig. 8's strategies —
// with one processor and with four, and requires deeply equal results: rows,
// points, checks and verdict. Each arm builds its own device and writes only
// its own slot, so the schedule must not show; under -race the
// four-processor run also checks that no arm touches another's state.
func TestFigureArmsIndependentOfProcs(t *testing.T) {
	cfg, opt := config.Paper(), Quick()
	run := func(procs int) []any {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		f6a, err := RunFig6a(cfg, opt)
		if err != nil {
			t.Fatal(err)
		}
		f6b, err := RunFig6b(cfg, opt)
		if err != nil {
			t.Fatal(err)
		}
		f7, err := RunFig7(cfg, opt)
		if err != nil {
			t.Fatal(err)
		}
		f8, err := RunFig8(cfg, opt)
		if err != nil {
			t.Fatal(err)
		}
		return []any{f6a, f6b, f7, f8}
	}
	serial, shared := run(1), run(4)
	for i, name := range []string{"fig6a", "fig6b", "fig7", "fig8"} {
		if !reflect.DeepEqual(serial[i], shared[i]) {
			t.Errorf("%s differs between GOMAXPROCS 1 and 4:\n 1: %+v\n 4: %+v", name, serial[i], shared[i])
		}
	}
}
