//go:build !race

package config

// raceEnabled reports whether the race detector is on; allocation pins are
// skipped under -race because the detector's instrumentation skews
// allocation accounting.
const raceEnabled = false
