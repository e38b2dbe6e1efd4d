package fame

// Probes that only this package's tests use.

// PoolStats returns the batch-pool tripwires: fresh allocations on a
// pool miss and recycled batches a full free ring refused, summed over
// the runner's life.
func (r *Runner) PoolStats() (allocs, drops uint64) {
	return r.poolAllocs.Load(), r.poolDrops.Load()
}
