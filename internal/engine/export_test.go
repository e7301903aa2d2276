package engine

// PendingReplays lets the external test package read e.pendingReplays.
func PendingReplays(e *Engine) int { return e.pendingReplays() }
