package fleet

import (
	"runtime"
	"testing"

	"github.com/conzone/conzone/internal/units"
)

// costDevices is how many devices per cohort the cost pins run: the default
// population's two cohorts, 400 devices in all, at one worker.
const costDevices = 200

// allocsPerDevice runs the default population once at one worker and
// returns what a device allocated on average: objects and bytes.
func allocsPerDevice(tb testing.TB) (allocs, bytes float64) {
	tb.Helper()
	spec := DefaultSpec(1, costDevices)
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	res, err := Run(&spec, Options{Workers: 1})
	runtime.ReadMemStats(&b)
	if err != nil {
		tb.Fatal(err)
	}
	if res.Fleet.Failed > 0 {
		tb.Fatalf("%d devices failed", res.Fleet.Failed)
	}
	n := float64(res.Fleet.Devices)
	return float64(b.Mallocs-a.Mallocs) / n, float64(b.TotalAlloc-a.TotalAlloc) / n
}

// TestDeviceAllocs pins what one device of the default population allocates,
// construction, workload and telemetry included: ~157 allocations and
// ~63 KiB, where a per-zone staged set and 9-byte mapping entries made it
// ~240 and ~92 KiB. The counts repeat from run to run, so the bounds leave
// only a small margin.
func TestDeviceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation accounting")
	}
	allocs, bytes := allocsPerDevice(t)
	t.Logf("%.1f allocations and %.1f KiB per device", allocs, bytes/float64(units.KiB))
	if allocs > 170 || bytes > float64(72*units.KiB) {
		t.Errorf("a device allocates %.1f times and %.0f bytes, want at most 170 and %d", allocs, bytes, 72*units.KiB)
	}
}

// BenchmarkRun is the fleet benchmark's unit of work at one worker: the
// devices of the default population built, driven and summarised, reported
// per device.
func BenchmarkRun(b *testing.B) {
	var allocs, bytes float64
	for i := 0; i < b.N; i++ {
		allocs, bytes = allocsPerDevice(b)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*costDevices), "ns/device")
	b.ReportMetric(allocs, "allocs/device")
	b.ReportMetric(bytes, "B/device")
}
