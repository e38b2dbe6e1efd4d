package nic

// Probes and helpers that only this package's tests use.

// Stats returns a snapshot of the NIC counters.
func (n *NIC) Stats() Stats { return n.stats }

// CountsOf unpacks the RegCounts value.
func CountsOf(v uint64) (sendReqFree, recvReqFree, sendComp, recvComp int) {
	return int(v & 0xff), int(v >> 8 & 0xff), int(v >> 16 & 0xff), int(v >> 24 & 0xff)
}
