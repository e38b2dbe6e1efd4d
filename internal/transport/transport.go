// Package transport implements FireSim's physical token transports
// (Section III-B2).
//
// The paper moves tokens over three transports: PCIe/EDMA between FPGA and
// host, shared memory between processes on one host, and TCP sockets
// between hosts. In this reproduction the fame.Runner's channels play the
// shared-memory role; this package adds:
//
//   - a wire codec for token batches (binary framing), and
//   - Bridge, a fame.Endpoint that splices a simulation across two Runner
//     instances — potentially in different OS processes or machines —
//     over any io.ReadWriter (usually a TCP connection). A Bridge pair
//     behaves as a zero-latency wire: all target latency stays in the
//     explicit links, so splitting a topology across hosts does not change
//     its cycle-level behaviour (asserted by tests).
//
// As in the paper, tokens are batched to one link latency's worth per
// exchange, and "the exchange of these tokens ensures that each server
// simulation computes each target cycle deterministically": a Bridge
// blocks until its peer's batch arrives, which is exactly the decoupled
// synchronisation the token protocol prescribes.
package transport

// The v3 wire codec lives in codec.go; Bridge, the fame.Endpoint that
// splices a simulation across hosts over it, lives in bridge.go.
