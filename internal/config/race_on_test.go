//go:build race

package config

const raceEnabled = true
