package wbuf

// NumBuffers returns the buffer count.
func (m *Manager) NumBuffers() int { return len(m.bufs) }

// CapacitySectors returns the per-buffer capacity.
func (m *Manager) CapacitySectors() int64 { return m.cap }
