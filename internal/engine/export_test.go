package engine

// pendingReplays returns how many journaled episodes are still waiting to
// be replayed, the sum of the replay queues; a resumed campaign that
// re-executes deterministically drains it to zero before its first live
// measurement of a journaled key.
func (e *Engine) pendingReplays() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, q := range e.replay {
		n += len(q)
	}
	return n
}

// PendingReplays lets the external test package read e.pendingReplays.
func PendingReplays(e *Engine) int { return e.pendingReplays() }
