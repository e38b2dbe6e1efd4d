package manager

import (
	"repro/internal/obs"
)

// EnableMetrics instruments every component of the deployed cluster —
// the runner's hot loop (fame_*) and every switch (switch_*) — against
// one registry. Bridges joining this cluster to remote partitions export
// no registry metrics; the bench reads their byte totals directly.
func (c *Cluster) EnableMetrics(reg *obs.Registry) {
	c.Runner.EnableMetrics(reg)
	for _, sw := range c.Switches {
		sw.EnableMetrics(reg)
	}
}
