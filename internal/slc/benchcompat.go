package slc

// The frozen bench/layers.go subtracts two readings with this method; it is
// its only caller. Intervals inside this module come from telemetry's fold.

// Delta returns the counter changes from prev to s (interval reporting).
func (s Stats) Delta(prev Stats) Stats {
	return Stats{
		Staged:      s.Staged - prev.Staged,
		Migrated:    s.Migrated - prev.Migrated,
		Invalidated: s.Invalidated - prev.Invalidated,
		Collections: s.Collections - prev.Collections,
		Erased:      s.Erased - prev.Erased,
		Retired:     s.Retired - prev.Retired,
	}
}
