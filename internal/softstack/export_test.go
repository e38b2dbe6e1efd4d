package softstack

import "repro/internal/clock"

// Probes and helpers that only this package's tests use.

// Now returns the node's current cycle (end of the last processed event).
func (n *Node) Now() clock.Cycles { return n.cycle }
