// Package core holds the four names the benchmark harness (bench/rig.go)
// still imports from the retired top-level API. The manager package is the
// API — new code describes its topology as a manager.NodeSpec and deploys
// it with manager.Deploy — and this package goes with the benchmark's
// next revision.
package core

import "repro/internal/manager"

// DeployConfig is manager.DeployConfig.
type DeployConfig = manager.DeployConfig

// QuadCore is manager.QuadCore.
const QuadCore = manager.QuadCore

// Tree is manager.Tree.
func Tree(fanouts []int, blade manager.BladeType) (manager.NodeSpec, error) {
	return manager.Tree(fanouts, blade)
}

// Deploy is manager.Deploy.
func Deploy(topo manager.NodeSpec, cfg DeployConfig) (*manager.Cluster, error) {
	return manager.Deploy(topo, cfg)
}
