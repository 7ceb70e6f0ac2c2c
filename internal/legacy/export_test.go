package legacy

// WAF returns NAND bytes programmed over host bytes written.
func (d *Device) WAF() float64 {
	if d.stats.HostWrittenBytes == 0 {
		return 0
	}
	return float64(d.arr.Counters().BytesProgrammed) / float64(d.stats.HostWrittenBytes)
}

// len returns the resident entry count.
func (c *pageCache) len() int { return c.n }
