package zns

// Observers the state-machine tests read the manager through.

// Remaining returns the writable sectors left before the zone is full.
func (z Zone) Remaining() int64 { return z.Start + z.Capacity - z.WP }

// ZoneSize returns the LBA stride between zone starts, in sectors.
func (m *Manager) ZoneSize() int64 { return m.zoneSize }

// ZoneCapacity returns the writable sectors per zone.
func (m *Manager) ZoneCapacity() int64 { return m.zoneCap }

// OpenZones returns the ids of currently open zones, ascending.
func (m *Manager) OpenZones() []int {
	var out []int
	for i := range m.zones {
		if m.zones[i].State.open() {
			out = append(out, i)
		}
	}
	return out
}

// scanOpen recounts open zones from the table, to verify the running
// counters (the equivalence test).
func (m *Manager) scanOpen() int {
	n := 0
	for i := range m.zones {
		if m.zones[i].State.open() {
			n++
		}
	}
	return n
}

// scanActive recounts active zones from the table; see scanOpen.
func (m *Manager) scanActive() int {
	n := 0
	for i := range m.zones {
		if m.zones[i].State.active() {
			n++
		}
	}
	return n
}
