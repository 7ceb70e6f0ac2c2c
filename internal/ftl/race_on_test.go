//go:build race

package ftl_test

const raceEnabled = true
