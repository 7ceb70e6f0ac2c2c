package telemetry

// Last returns the most recent sample (zero Sample when none).
func (s *Sampler) Last() (Sample, bool) {
	if s == nil || s.seq == 0 {
		return Sample{}, false
	}
	return s.ring[(s.seq-1)%uint64(len(s.ring))], true
}

// Sum folds a slice of snapshots with Add. Integer summation is associative
// and commutative and the ratios are recomputed from the final sums, so the
// result is identical under any merge order — the property fleet
// determinism across worker-pool sizes rests on.
func Sum(snaps []Stats) Stats {
	var out Stats
	for _, s := range snaps {
		out = Add(out, s)
	}
	return out
}

// Reset clears the series, keeping the interval and ring size.
func (s *Sampler) Reset() {
	if s == nil {
		return
	}
	s.seq = 0
	s.havePrev = false
	s.prev = Stats{}
}
