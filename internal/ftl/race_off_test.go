//go:build !race

package ftl_test

// raceEnabled reports whether the race detector is on; allocation pins are
// skipped under -race because the detector's instrumentation skews
// allocation accounting.
const raceEnabled = false
