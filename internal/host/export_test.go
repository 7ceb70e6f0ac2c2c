package host

// LoseSyncCompletions arms the dispatcher to swallow the next n completions
// bound for the internal sync queue, reproducing the bookkeeping corruption
// execSync's lost-completion recovery guards against. The field and the
// recovery path are safety code and ship; only this switch is test-only.
func (c *Controller) LoseSyncCompletions(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.debugLoseSync = n
}
