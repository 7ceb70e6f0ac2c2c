//go:build !race

package workload

// raceEnabled reports whether the race detector is on; allocation-count
// pins are skipped under -race because the detector's instrumentation
// skews allocation accounting.
const raceEnabled = false
