package telemetry

import "reflect"

// Fleet roll-up support: merging many devices' snapshots into one
// population snapshot. The merge walks the Stats struct reflectively, like
// the Prometheus exporter does, so a counter added to any subsystem's Stats
// block is summed across the fleet by construction — the exporter and the
// merger can never disagree about which counters exist.

// Add returns the population sum of two snapshots: every integer counter
// and gauge field is summed recursively (occupancy gauges sum to population
// totals — e.g. total buffered sectors across devices), booleans OR
// (Occupancy.ReadOnly reports "any device read-only"; fleets count
// read-only devices separately), and the two ratio gauges are recomputed
// from the summed bytes and lookups, so the merged WAF is the population
// WAF rather than a mean of per-device ratios.
func Add(a, b Stats) Stats {
	out := a
	addInto(reflect.ValueOf(&out).Elem(), reflect.ValueOf(b))
	out.WAF = 0
	if out.FTL.HostWrittenBytes > 0 {
		out.WAF = float64(out.NAND.BytesProgrammed) / float64(out.FTL.HostWrittenBytes)
	}
	out.L2PMissRatio = 0
	if lookups := out.Cache.Hits + out.Cache.Misses; lookups > 0 {
		out.L2PMissRatio = float64(out.Cache.Misses) / float64(lookups)
	}
	return out
}

// addInto recursively adds src into dst: ints sum, bools OR, floats are
// left to the caller (Add recomputes the ratio gauges from the sums).
func addInto(dst, src reflect.Value) {
	switch dst.Kind() {
	case reflect.Struct:
		for i := 0; i < dst.NumField(); i++ {
			addInto(dst.Field(i), src.Field(i))
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		dst.SetInt(dst.Int() + src.Int())
	case reflect.Bool:
		dst.SetBool(dst.Bool() || src.Bool())
	}
}
