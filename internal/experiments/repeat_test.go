package experiments

import (
	"reflect"
	"testing"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/units"
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
			r, err := workload.Run(dev, workload.Job{
				Name: "seqread", Pattern: workload.SeqRead,
				BlockBytes: seqBS, NumJobs: jobs,
				RangeBytes:       region,
				TotalBytesPerJob: units.AlignDown(min64(opt.ReadBytes, region)/int64(jobs), seqBS),
				PerOpOverhead:    opt.PerOpOverhead,
				Seed:             13,
				StartAt:          at,
			})
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
