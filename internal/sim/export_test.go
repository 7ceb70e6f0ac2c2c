package sim

// Observers the package's own tests read a Resource through; nothing outside
// the tests needs them.

// BusyUntil returns the current busy horizon.
func (r *Resource) BusyUntil() Time { return r.busyUntil }

// Reset returns the resource to the idle state at time zero, keeping its
// name. Used when a device is reused across experiment runs.
func (r *Resource) Reset() {
	r.busyUntil = 0
	r.busyTime = 0
	r.ops = 0
}

// Reset returns the engine and every registered resource to time zero.
func (e *Engine) Reset() {
	e.now = 0
	for _, r := range e.resources {
		r.Reset()
	}
}
