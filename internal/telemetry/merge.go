package telemetry

import "reflect"

// Every snapshot derived from others — a population sum, an interval —
// comes from one reflective fold over the Stats struct, like the Prometheus
// exporter's walk, so a counter added to any subsystem's Stats block is
// summed across a fleet and differenced over an interval by construction:
// the counters kept, derived and exported can never disagree.

// Add returns the population sum of two snapshots: every integer counter
// and gauge field is summed recursively (occupancy gauges sum to population
// totals — e.g. total buffered sectors across devices), booleans OR
// (Occupancy.ReadOnly reports "any device read-only"; fleets count
// read-only devices separately), and the two ratio gauges are recomputed
// from the summed bytes and lookups, so the merged WAF is the population
// WAF rather than a mean of per-device ratios.
func Add(a, b Stats) Stats {
	fold(&a, &b, false)
	return a
}

// occupancyType is the block a difference leaves at its current reading.
var occupancyType = reflect.TypeOf(Occupancy{})

// fold combines src into dst in place: integers are summed, or subtracted
// when sub is set; booleans OR on a sum; on a difference the occupancy block
// (and any boolean) keeps dst's reading; floats are skipped and setRatios
// recomputes them from the folded counters. Both operands are pointers, so
// folding into memory the caller already holds — the sampler's ring slot —
// allocates nothing.
func fold(dst, src *Stats, sub bool) {
	foldValue(reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem(), sub)
	dst.setRatios()
}

func foldValue(dst, src reflect.Value, sub bool) {
	switch dst.Kind() {
	case reflect.Struct:
		if sub && dst.Type() == occupancyType {
			return
		}
		for i := 0; i < dst.NumField(); i++ {
			foldValue(dst.Field(i), src.Field(i), sub)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if sub {
			dst.SetInt(dst.Int() - src.Int())
		} else {
			dst.SetInt(dst.Int() + src.Int())
		}
	case reflect.Bool:
		if !sub {
			dst.SetBool(dst.Bool() || src.Bool())
		}
	}
}
