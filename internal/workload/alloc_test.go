package workload

import (
	"fmt"
	"testing"
	"time"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/host"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
)

// TestPrefillAllocsIndependentOfVolume pins that a timing-only Prefill
// allocates nothing per 384 KiB block. The first fill of a zone pays for
// the device's first-touch mapping and media state, so the fills measured
// are the second ones, after a reset returned that state to the device's
// freelists: what is left is the driver's own.
func TestPrefillAllocsIndependentOfVolume(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed under -race")
	}
	f, err := config.Paper().NewConZone()
	if err != nil {
		t.Fatal(err)
	}
	zoneBytes := f.ZoneCapSectors() * units.Sector
	refill := func(zones int64) float64 {
		return testing.AllocsPerRun(3, func() {
			at, err := ResetAllZones(f, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Prefill(f, at, 0, zones*zoneBytes, false); err != nil {
				t.Fatal(err)
			}
		})
	}
	refill(8) // first touch of all eight zones
	a1, a8 := refill(1), refill(8)
	blocks := 7 * zoneBytes / (384 * units.KiB)
	t.Logf("refill of 1 zone: %.0f allocs; of 8 zones: %.0f allocs, %d more blocks", a1, a8, blocks)
	if a8-a1 > float64(blocks)/8 {
		t.Errorf("8 zones allocate %.0f more than 1 zone over %d more blocks: Prefill allocates per block", a8-a1, blocks)
	}
}

// runRegion is the region BenchmarkRun and TestRunAllocsIndependentOfVolume
// read: 16 MiB of a Paper() device, prefilled timing-only.
const runRegion = 16 * units.MiB

// readDevice builds a Paper() device with runRegion prefilled and returns
// what a job at depth drives — the bare FTL at depth 1, a controller over
// it above — and the instant the prefill left it quiescent.
func readDevice(tb testing.TB, depth int) (Device, sim.Time) {
	tb.Helper()
	f, err := config.Paper().NewConZone()
	if err != nil {
		tb.Fatal(err)
	}
	var dev Device = f
	if depth > 1 {
		if dev, err = host.New(f, host.Config{Queues: 1, Depth: depth}); err != nil {
			tb.Fatal(err)
		}
	}
	at, err := Prefill(dev, 0, 0, runRegion, false)
	if err != nil {
		tb.Fatal(err)
	}
	return dev, at
}

// readJob is ops 4 KiB random reads over runRegion at depth.
func readJob(depth int, ops int64, at sim.Time) Job {
	return Job{
		Name: fmt.Sprintf("randread-qd%d", depth), Pattern: RandRead,
		BlockBytes: 4 * units.KiB, NumJobs: 1, QueueDepth: depth,
		RangeBytes: runRegion, TotalBytesPerJob: ops * 4 * units.KiB,
		PerOpOverhead: time.Microsecond, Seed: 1, StartAt: at,
	}
}

// BenchmarkRun is the event loop's cost per I/O: 4 KiB random reads over
// a timing-only 16 MiB of a Paper() device, straight to the FTL at depth
// 1 and through a host controller at depth 16. One Run issues all b.N
// reads, so what the loop allocates once per Run divides away and allocs/op
// reads 0 unless something allocates per I/O.
func BenchmarkRun(b *testing.B) {
	for _, depth := range []int{1, 16} {
		b.Run(fmt.Sprintf("qd%d", depth), func(b *testing.B) {
			dev, at := readDevice(b, depth)
			job := readJob(depth, int64(b.N), at)
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := Run(dev, job); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// TestRunAllocsIndependentOfVolume pins that Run allocates nothing per I/O
// at either depth: a job eight times longer allocates no more. A first run
// warms what the device keeps between jobs (cache slots, the controller's
// buffer pools), so the runs measured pay only for the loop.
func TestRunAllocsIndependentOfVolume(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed under -race")
	}
	for _, depth := range []int{1, 16} {
		dev, at := readDevice(t, depth)
		run := func(ops int64) float64 {
			job := readJob(depth, ops, at)
			return testing.AllocsPerRun(3, func() {
				if _, err := Run(dev, job); err != nil {
					t.Fatal(err)
				}
			})
		}
		run(8192)
		a1, a8 := run(1024), run(8192)
		t.Logf("qd%d: %.0f allocs for 1024 reads, %.0f for 8192", depth, a1, a8)
		if a8 > a1 {
			t.Errorf("qd%d: 8192 reads allocate %.0f, 1024 reads %.0f: Run allocates per I/O", depth, a8, a1)
		}
	}
}

// TestControllerDepthOneReadsAllocateNothing pins the controller's ReadInto
// under the event loop: a depth-1 job reading stamped data through a host
// controller copies every sector into the controller's pooled buffers and
// returns them as the read ends, so a job eight times longer allocates no
// more.
func TestControllerDepthOneReadsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed under -race")
	}
	f, err := config.Paper().NewConZone()
	if err != nil {
		t.Fatal(err)
	}
	c, err := host.New(f, host.Config{Queues: 1, Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	at, err := Prefill(c, 0, 0, runRegion, true)
	if err != nil {
		t.Fatal(err)
	}
	run := func(ops int64) float64 {
		job := readJob(1, ops, at)
		return testing.AllocsPerRun(3, func() {
			res, err := Run(c, job)
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops != ops {
				t.Fatalf("%d of %d reads completed", res.Ops, ops)
			}
		})
	}
	run(8192)
	a1, a8 := run(1024), run(8192)
	t.Logf("%.0f allocs for 1024 reads, %.0f for 8192", a1, a8)
	if a8 > a1 {
		t.Errorf("8192 reads allocate %.0f, 1024 reads %.0f: a depth-1 controller read allocates", a8, a1)
	}
}
