// Package apps implements the workloads used by the paper's validation
// and evaluation sections on top of the modeled software stack:
//
//   - a memcached-style key-value server with a configurable worker-thread
//     count and optional one-thread-per-core pinning (Section IV-E),
//   - a mutilate-style closed/open-loop load generator measuring 50th and
//     95th percentile latency at a controlled offered QPS,
//   - an iperf3-style streaming benchmark (Section IV-B).
package apps

import (
	"encoding/binary"

	"repro/internal/clock"
	"repro/internal/ethernet"
	"repro/internal/softstack"
	"repro/internal/stats"
)

// MemcachedPort is the standard memcached service port.
const MemcachedPort = 11211

// MemcachedConfig parameterises the server.
type MemcachedConfig struct {
	// Threads is the number of worker threads. The paper runs 4 or 5
	// threads on 4-core servers to demonstrate thread imbalance.
	Threads int
	// Pinned pins worker i to core i%cores (taskset-style).
	Pinned bool
	// ServiceCost is the userspace request-processing cost; zero takes
	// the default (hash lookup, value copy, response formatting).
	ServiceCost clock.Cycles
}

// MemcachedServer is a modeled memcached instance.
type MemcachedServer struct {
	node    *softstack.Node
	cfg     MemcachedConfig
	workers []*softstack.Thread
	// conns maps a client connection (ip, port) to its assigned worker,
	// mirroring memcached's round-robin connection distribution.
	conns    map[uint64]int
	nextConn int
	rng      uint64

	// Served counts completed requests.
	Served uint64
}

// DefaultServiceCost is the per-request userspace cost at 3.2 GHz
// (~15 us: parse, hash, copy, format).
func DefaultServiceCost(freq clock.Hz) clock.Cycles {
	return clock.New(freq).CyclesInMicros(15)
}

// NewMemcachedServer installs a memcached server on the node.
func NewMemcachedServer(n *softstack.Node, cfg MemcachedConfig) *MemcachedServer {
	if cfg.Threads <= 0 {
		cfg.Threads = 4
	}
	if cfg.ServiceCost == 0 {
		cfg.ServiceCost = DefaultServiceCost(n.Clock().Freq())
	}
	s := &MemcachedServer{node: n, cfg: cfg, conns: make(map[uint64]int), rng: uint64(n.MAC())*0x9e3779b97f4a7c15 + 0x5851}
	for i := 0; i < cfg.Threads; i++ {
		pin := -1
		if cfg.Pinned {
			pin = i % 4
		}
		s.workers = append(s.workers, n.NewThread(pin))
	}
	n.HandleUDP(MemcachedPort, s.onRequest)
	return s
}

// onRequest runs at kernel delivery time: pick the connection's worker and
// queue the userspace work (wakeup latency + epoll/read syscalls + service
// + response transmit).
func (s *MemcachedServer) onRequest(now clock.Cycles, src ethernet.IP, srcPort uint16, payload []byte) {
	key := uint64(src)<<16 | uint64(srcPort)
	wi, ok := s.conns[key]
	if !ok {
		wi = s.nextConn % len(s.workers)
		s.conns[key] = wi
		s.nextConn++
	}
	worker := s.workers[wi]
	costs := s.node.Costs()
	req := append([]byte(nil), payload...)
	service := s.serviceDraw()
	s.node.At(now+costs.SockWakeup, func(wake clock.Cycles) {
		cost := costs.Syscall*2 + service + costs.KernelTX
		worker.Submit(wake, softstack.Job{Cost: cost, Fn: func(done clock.Cycles) {
			s.Served++
			// Response: echo the request header (id + client timestamp)
			// with a modeled value payload.
			resp := make([]byte, len(req)+64)
			copy(resp, req)
			s.node.SendUDPAccounted(done, src, srcPort, MemcachedPort, resp)
		}})
	})
}

// serviceDraw samples the per-request userspace cost: mostly a uniform
// band around the nominal cost (value-size and hash-chain variation), with
// an occasional 3x slow path (allocation, LRU maintenance) that gives the
// tail the "other variability" the paper sees dominating p95 at light
// load.
func (s *MemcachedServer) serviceDraw() clock.Cycles {
	x := s.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	s.rng = x
	r := x * 2685821657736338717
	base := float64(s.cfg.ServiceCost)
	u := float64(r%1000) / 1000
	cost := base * (0.7 + 0.6*u)
	if r>>32%100 < 5 {
		cost = base * 3
	}
	return clock.Cycles(cost)
}

// MutilateConfig parameterises a load-generator node.
type MutilateConfig struct {
	// Server is the target memcached instance.
	Server ethernet.IP
	// QPS is the offered load from this generator.
	QPS float64
	// Connections is the number of distinct client connections (each maps
	// to a source port, and therefore to a server worker thread).
	Connections int
	// Duration bounds the request stream, in cycles: requests are sent
	// from cycle 0 up to Duration.
	Duration clock.Cycles
	// Seed drives the generator's deterministic arrival process.
	Seed uint64
}

// Mutilate is a modeled mutilate load generator: it offers an open-loop
// Poisson request stream at the configured QPS and records per-request
// latency from userspace send to userspace receive.
type Mutilate struct {
	node *softstack.Node
	cfg  MutilateConfig

	// Latencies collects microsecond round-trip samples.
	Latencies stats.Sample
	// Sent and Received count requests.
	Sent, Received uint64

	rng     uint64
	nextID  uint64
	pending map[uint64]clock.Cycles
}

// basePort is the first source port used for connections.
const basePort = 40000

// NewMutilate installs a load generator on the node and schedules its
// request stream.
func NewMutilate(n *softstack.Node, cfg MutilateConfig) *Mutilate {
	if cfg.Connections <= 0 {
		cfg.Connections = 4
	}
	m := &Mutilate{node: n, cfg: cfg, rng: cfg.Seed*0x9e3779b97f4a7c15 + 1, pending: make(map[uint64]clock.Cycles)}
	for c := 0; c < cfg.Connections; c++ {
		n.HandleUDP(basePort+uint16(c), m.onResponse)
	}
	m.scheduleNext(0)
	return m
}

func (m *Mutilate) rand() uint64 {
	x := m.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	m.rng = x
	return x * 2685821657736338717
}

// expInterval draws an exponential inter-arrival gap in cycles for the
// configured QPS at the node's clock.
func (m *Mutilate) expInterval() clock.Cycles {
	mean := float64(m.node.Clock().Freq()) / m.cfg.QPS
	// Inverse-CDF with a uniform in (0,1]; clamp the tail to 8x mean so a
	// single unlucky draw cannot stall the generator.
	u := float64(m.rand()%1_000_000+1) / 1_000_000
	gap := -mean * ln(u)
	if gap > 8*mean {
		gap = 8 * mean
	}
	if gap < 1 {
		gap = 1
	}
	return clock.Cycles(gap)
}

// ln is a small local natural-log to avoid importing math in the hot
// path... actually math.Log is fine; kept as a named indirection for
// clarity at call sites.
func ln(x float64) float64 { return mathLog(x) }

func (m *Mutilate) scheduleNext(at clock.Cycles) {
	if at >= m.cfg.Duration {
		return
	}
	m.node.At(at, func(now clock.Cycles) {
		m.sendRequest(now)
		m.scheduleNext(now + m.expInterval())
	})
}

func (m *Mutilate) sendRequest(now clock.Cycles) {
	id := m.nextID
	m.nextID++
	conn := uint16(id % uint64(m.cfg.Connections))
	payload := make([]byte, 32)
	binary.BigEndian.PutUint64(payload[0:8], id)
	binary.BigEndian.PutUint64(payload[8:16], uint64(now))
	m.pending[id] = now
	m.Sent++
	m.node.SendUDP(now, m.cfg.Server, MemcachedPort, basePort+conn, payload)
}

func (m *Mutilate) onResponse(now clock.Cycles, src ethernet.IP, srcPort uint16, payload []byte) {
	if len(payload) < 16 {
		return
	}
	id := binary.BigEndian.Uint64(payload[0:8])
	sent, ok := m.pending[id]
	if !ok {
		return
	}
	delete(m.pending, id)
	// Userspace sees the response after the socket wakeup.
	done := now + m.node.Costs().SockWakeup
	m.Received++
	m.Latencies.Add(m.node.Clock().Micros(done - sent))
}
