package nic

// Probes and helpers that only this package's tests use.

// Stats returns a snapshot of the NIC counters.
func (n *NIC) Stats() Stats { return n.stats }

// SetRateLimitGbps configures the limiter for a target bandwidth on a link
// of the given raw bandwidth (both in Gbit/s) with a small rational
// approximation k/p.
func (n *NIC) SetRateLimitGbps(target, link float64) {
	if target >= link {
		n.SetRateLimit(1, 1)
		return
	}
	// Find a small rational approximation k/p = target/link.
	const maxDen = 400
	bestK, bestP := uint32(1), uint32(maxDen)
	bestErr := 1e18
	want := target / link
	for p := 1; p <= maxDen; p++ {
		k := int(want*float64(p) + 0.5)
		if k < 1 {
			continue
		}
		err := abs(float64(k)/float64(p) - want)
		if err < bestErr {
			bestErr = err
			bestK, bestP = uint32(k), uint32(p)
			if err == 0 {
				break
			}
		}
	}
	n.SetRateLimit(bestK, bestP)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// CountsOf unpacks the RegCounts value.
func CountsOf(v uint64) (sendReqFree, recvReqFree, sendComp, recvComp int) {
	return int(v & 0xff), int(v >> 8 & 0xff), int(v >> 16 & 0xff), int(v >> 24 & 0xff)
}
