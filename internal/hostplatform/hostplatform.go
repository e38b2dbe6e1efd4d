// Package hostplatform models the public-cloud host platform FireSim runs
// on: EC2 F1 FPGA instances and the m4.16xlarge switch-model hosts, FPGA
// resource budgets (including the supernode packing of Section III-A5),
// and the spot/on-demand cost arithmetic of Section V-C.
//
// SUBSTITUTION NOTE: this repository cannot rent FPGAs, so these models
// carry the deployment-planning half of FireSim — how many instances a
// topology needs, what it costs per hour, and how full the FPGAs are —
// while the token-level behaviour runs in the in-process simulator.
package hostplatform

import (
	"fmt"

	"repro/internal/clock"
)

// InstanceType describes one EC2 instance offering.
type InstanceType struct {
	// Name is the EC2 API name.
	Name string
	// VCPUs and DRAMGiB describe the host instance.
	VCPUs   int
	DRAMGiB int
	// NetworkGbps is the host networking bandwidth.
	NetworkGbps float64
	// FPGAs is the number of attached Xilinx Virtex UltraScale+ FPGAs.
	FPGAs int
	// OnDemandHourly and SpotHourly are USD prices (2018-era, matching the
	// paper's cost arithmetic).
	OnDemandHourly float64
	SpotHourly     float64
}

// The instance types used by FireSim (Section II).
var (
	F1_2XLarge = InstanceType{
		Name: "f1.2xlarge", VCPUs: 8, DRAMGiB: 122, NetworkGbps: 10, FPGAs: 1,
		OnDemandHourly: 1.65, SpotHourly: 0.55,
	}
	F1_16XLarge = InstanceType{
		Name: "f1.16xlarge", VCPUs: 64, DRAMGiB: 976, NetworkGbps: 25, FPGAs: 8,
		OnDemandHourly: 13.20, SpotHourly: 3.00,
	}
	M4_16XLarge = InstanceType{
		Name: "m4.16xlarge", VCPUs: 64, DRAMGiB: 256, NetworkGbps: 25, FPGAs: 0,
		OnDemandHourly: 3.20, SpotHourly: 0.80,
	}
)

// FPGARetailUSD is the publicly listed retail price of one UltraScale+
// FPGA, used for the paper's "$12.8M worth of FPGAs" headline.
const FPGARetailUSD = 50_000

// FPGADRAMChannels is the number of DRAM channels per F1 FPGA; each
// simulated node consumes one, which is what makes 4-node supernode
// packing natural.
const FPGADRAMChannels = 4

// Utilization describes FPGA LUT occupancy for a given packing, matching
// the percentages reported in Section III-A5.
type Utilization struct {
	// NodesPerFPGA is the packing factor (1 = standard, 4 = supernode).
	NodesPerFPGA int
	// BladePct is LUT share consumed by the simulated server blades.
	BladePct float64
	// InfraPct is the shell + simulation infrastructure share.
	InfraPct float64
}

// LUT shares from the paper: a single blade design uses 32.6% of the
// FPGA's LUTs, of which 14.4 points are the custom server-blade RTL; the
// remaining 18.2 points are the AWS shell and simulation infrastructure.
const (
	bladeLUTPct = 14.4
	infraLUTPct = 32.6 - bladeLUTPct
)

// UtilizationFor returns the LUT budget for packing n nodes per FPGA.
// n=1 reproduces the paper's 32.6% total; n=4 (supernode) reproduces
// ~57.7% of blade logic and ~76% total.
func UtilizationFor(n int) (Utilization, error) {
	if n < 1 || n > FPGADRAMChannels {
		return Utilization{}, fmt.Errorf("hostplatform: %d nodes per FPGA exceeds the %d DRAM channels", n, FPGADRAMChannels)
	}
	u := Utilization{
		NodesPerFPGA: n,
		BladePct:     bladeLUTPct * float64(n),
		InfraPct:     infraLUTPct,
	}
	if u.TotalPct() > 100 {
		return Utilization{}, fmt.Errorf("hostplatform: packing %d nodes needs %.1f%% of LUTs", n, u.TotalPct())
	}
	return u, nil
}

// TotalPct is the total LUT occupancy.
func (u Utilization) TotalPct() float64 { return u.BladePct + u.InfraPct }

// Deployment is a bill of instances for a simulation.
type Deployment struct {
	counts map[string]int
	types  map[string]InstanceType
}

// NewDeployment returns an empty deployment.
func NewDeployment() *Deployment {
	return &Deployment{counts: make(map[string]int), types: make(map[string]InstanceType)}
}

// Add includes n instances of the given type.
func (d *Deployment) Add(t InstanceType, n int) {
	d.counts[t.Name] += n
	d.types[t.Name] = t
}

// Count reports how many instances of the named type are deployed.
func (d *Deployment) Count(name string) int { return d.counts[name] }

// FPGAs reports the total FPGA count.
func (d *Deployment) FPGAs() int {
	total := 0
	for name, n := range d.counts {
		total += n * d.types[name].FPGAs
	}
	return total
}

// HourlyCost returns the USD per simulation hour, spot or on-demand —
// the paper's "~$100 per simulation hour" (spot) vs "~$440" (on-demand)
// for the 1024-node datacenter.
func (d *Deployment) HourlyCost(spot bool) float64 {
	var total float64
	for name, n := range d.counts {
		t := d.types[name]
		if spot {
			total += float64(n) * t.SpotHourly
		} else {
			total += float64(n) * t.OnDemandHourly
		}
	}
	return total
}

// FPGAValueUSD returns the retail value of the harnessed FPGAs — the
// paper's "$12.8M worth of FPGAs".
func (d *Deployment) FPGAValueUSD() float64 {
	return float64(d.FPGAs()) * FPGARetailUSD
}

// --- projected EC2 simulation-rate model ---

// RateModel projects the simulation rate the paper's EC2 deployment
// achieves for a given scale and link latency (batch size). It captures
// the structure of Figures 8 and 9: per-round transport latencies are
// fixed costs amortised over one link latency's worth of target cycles,
// so rate falls with scale (more hosts to synchronise) and rises with
// link latency (bigger batches).
type RateModel struct {
	// FPGAClock is the hard ceiling: the FAME-1 design's FPGA clock.
	FPGAClock clock.Hz
	// PCIeRoundTrip is the per-round PCIe/EDMA cost.
	PCIeRoundTrip float64 // seconds
	// HostEthRoundTrip is the per-round host Ethernet cost paid once the
	// simulation spans multiple instances.
	HostEthRoundTrip float64
	// PerNode is the per-simulated-node host processing cost per round
	// (token movement plus switch ingress/egress work).
	PerNode float64
}

// DefaultRateModel is calibrated so the paper's headline operating point
// (1024 supernode-packed nodes, 2 us / 200 Gbit/s network) lands at
// ~3.4 MHz, inside the "less than 1,000x slowdown" envelope.
func DefaultRateModel() RateModel {
	return RateModel{
		FPGAClock:        90 * clock.MHz,
		PCIeRoundTrip:    15e-6,
		HostEthRoundTrip: 40e-6,
		PerNode:          1.78e-6,
	}
}

// Project returns the projected simulation rate for a cluster of the
// given node count, batch size in target cycles (= link latency), and
// whether the deployment spans more than one EC2 instance.
func (m RateModel) Project(nodes int, batchCycles clock.Cycles, multiInstance bool) clock.Hz {
	round := m.PCIeRoundTrip + float64(nodes)*m.PerNode
	if multiInstance {
		round += m.HostEthRoundTrip
	}
	rate := clock.Hz(float64(batchCycles) / round)
	if rate > m.FPGAClock {
		rate = m.FPGAClock
	}
	return rate
}
