package nand

// The frozen bench/layers.go subtracts two readings with this method; it is
// its only caller. Intervals inside this module come from telemetry's fold.

// Delta returns the counter changes from prev to c (interval reporting).
func (c Counters) Delta(prev Counters) Counters {
	return Counters{
		PageReads:       c.PageReads - prev.PageReads,
		PUPrograms:      c.PUPrograms - prev.PUPrograms,
		PartialPrograms: c.PartialPrograms - prev.PartialPrograms,
		PageProgramsSLC: c.PageProgramsSLC - prev.PageProgramsSLC,
		MapPrograms:     c.MapPrograms - prev.MapPrograms,
		Erases:          c.Erases - prev.Erases,
		BytesRead:       c.BytesRead - prev.BytesRead,
		BytesProgrammed: c.BytesProgrammed - prev.BytesProgrammed,
	}
}
