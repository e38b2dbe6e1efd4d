package transport

import (
	"repro/internal/obs"
)

// This file wires the bridge into the observability layer (internal/obs).
// Each bridge exports its error ledger — latched errors and the sequence
// mismatches among them — plus byte/batch volume and per-exchange stall
// time for transport-overhead accounting. Recovery itself is the run-dist
// coordinator's rewind, counted in its report, not here.
//
// All instruments are updated from the bridge's single driving goroutine,
// so the counters cost one uncontended atomic add each at frame
// granularity (never per token).
//
// Metric names, labelled with the bridge name:
//
//	transport_batches_sent_total{bridge=B}     committed batch sends
//	transport_batches_recv_total{bridge=B}     committed batch receives
//	transport_bytes_sent_total{bridge=B}       wire bytes written (counted at the connection, not recomputed)
//	transport_bytes_recv_total{bridge=B}       wire bytes read (likewise)
//	transport_precodec_bytes_total{bridge=B}   what the sent traffic would cost under the v2 fixed-width codec
//	transport_stall_nanos{bridge=B}            histogram: per-exchange wall time blocked on the peer's batch
//	transport_seq_gaps_total{bridge=B}         frames whose sequence number was not the expected one
//	transport_errors_total{bridge=B}           transport errors latched
//
// The byte counters are fed by counting shims wrapped around the
// connection itself (see setConn), so they report what actually crossed
// the wire — handshakes and torn partial writes included — rather than a
// per-frame size recomputation. The precodec counter tracks the same sent
// traffic priced at the v2 codec's fixed 13-bytes-per-slot framing; the
// ratio of the two is the v3 codec's live compression factor.
type bridgeMetrics struct {
	batchesSent   *obs.Counter
	batchesRecv   *obs.Counter
	bytesSent     *obs.Counter
	bytesRecv     *obs.Counter
	precodecBytes *obs.Counter
	stallNanos    *obs.Histogram
	seqGaps       *obs.Counter
	errors        *obs.Counter
}

// EnableMetrics attaches the bridge to a registry: every subsequent
// exchange updates the transport_* instruments described in metrics.go.
// Passing nil detaches. Call it before the run starts (alongside
// NewBridgeConfig), from the same goroutine that will drive TickBatch.
func (b *Bridge) EnableMetrics(reg *obs.Registry) {
	if reg == nil {
		b.metrics = nil
		return
	}
	label := func(metric string) string { return obs.Label(metric, "bridge", b.name) }
	b.metrics = &bridgeMetrics{
		batchesSent:   reg.Counter(label("transport_batches_sent_total")),
		batchesRecv:   reg.Counter(label("transport_batches_recv_total")),
		bytesSent:     reg.Counter(label("transport_bytes_sent_total")),
		bytesRecv:     reg.Counter(label("transport_bytes_recv_total")),
		precodecBytes: reg.Counter(label("transport_precodec_bytes_total")),
		stallNanos:    reg.Histogram(label("transport_stall_nanos")),
		seqGaps:       reg.Counter(label("transport_seq_gaps_total")),
		errors:        reg.Counter(label("transport_errors_total")),
	}
}

// frameWireBytes is the exact on-wire size of one sequenced v2 batch
// frame: 8-byte sequence header, 8-byte batch header, 13 bytes per
// occupied slot. The v3 codec prices its precodec (baseline) accounting
// with it; it is no longer what crosses the wire.
func frameWireBytes(slots int) uint64 { return 8 + 8 + 13*uint64(slots) }
