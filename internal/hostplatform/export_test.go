package hostplatform

// Probes and helpers that only this package's tests use.

// Instances reports the total instance count.
func (d *Deployment) Instances() int {
	total := 0
	for _, n := range d.counts {
		total += n
	}
	return total
}
