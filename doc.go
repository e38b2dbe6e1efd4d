// Package repro is a from-scratch Go reproduction of "FireSim:
// FPGA-Accelerated Cycle-Exact Scale-Out System Simulation in the Public
// Cloud" (Karandikar et al., ISCA 2018).
//
// The library simulates datacenter targets cycle-exactly: FAME-1
// token-decoupled server models (down to an RV64IM core, caches, DDR3 and
// the paper's NIC design) connected by software switch models through a
// batched token transport, with a manager that builds, maps and deploys
// whole datacenter topologies. See README.md for the architecture
// overview, DESIGN.md for the system inventory and per-experiment index,
// and EXPERIMENTS.md for paper-vs-measured results.
//
// `firesim figures` regenerates every table and figure of the paper's
// evaluation, and `go run ./bench` measures how fast the simulator runs:
//
//	go run ./cmd/firesim figures
//	go run ./bench
package repro
