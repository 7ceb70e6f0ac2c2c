package sim

// Observers the package's own tests read a Resource through; nothing outside
// the tests needs them.

// PeekStart returns when an operation arriving at 'at' would start, without
// reserving anything.
func (r *Resource) PeekStart(at Time) Time { return Max(at, r.busyUntil) }

// BusyUntil returns the current busy horizon.
func (r *Resource) BusyUntil() Time { return r.busyUntil }

// Reset returns the engine and every registered resource to time zero.
func (e *Engine) Reset() {
	e.now = 0
	for _, r := range e.resources {
		r.Reset()
	}
}
