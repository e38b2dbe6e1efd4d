package transport

import (
	"repro/internal/obs"
)

// This file wires the hardened bridge into the observability layer
// (internal/obs). A distributed run's health story lives almost entirely
// in its bridges — how often connections dropped, how many frames had to
// be retransmitted to resynchronise, whether the peer ever produced a
// sequence gap — so each bridge exports the full recovery ledger, plus
// byte/batch volume for transport-overhead accounting.
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
//	transport_reconnects_total{bridge=B}       successful redials
//	transport_resyncs_total{bridge=B}          exchanges that retransmitted frames
//	transport_resent_frames_total{bridge=B}    frames retransmitted during resyncs
//	transport_dup_frames_total{bridge=B}       duplicate frames discarded
//	transport_seq_gaps_total{bridge=B}         fatal sequence gaps observed
//	transport_errors_total{bridge=B}           permanent transport errors latched
//
// The byte counters are fed by counting shims wrapped around the
// connection itself (see setConn), so they report what actually crossed
// the wire — retransmissions, duplicates and torn partial writes
// included — rather than a per-frame size recomputation. The precodec
// counter tracks the same sent traffic priced at the v2 codec's fixed
// 13-bytes-per-slot framing; the ratio of the two is the v3 codec's
// live compression factor.
type bridgeMetrics struct {
	batchesSent   *obs.Counter
	batchesRecv   *obs.Counter
	bytesSent     *obs.Counter
	bytesRecv     *obs.Counter
	precodecBytes *obs.Counter
	stallNanos    *obs.Histogram
	reconnects    *obs.Counter
	resyncs       *obs.Counter
	resentFrames  *obs.Counter
	dupFrames     *obs.Counter
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
		reconnects:    reg.Counter(label("transport_reconnects_total")),
		resyncs:       reg.Counter(label("transport_resyncs_total")),
		resentFrames:  reg.Counter(label("transport_resent_frames_total")),
		dupFrames:     reg.Counter(label("transport_dup_frames_total")),
		seqGaps:       reg.Counter(label("transport_seq_gaps_total")),
		errors:        reg.Counter(label("transport_errors_total")),
	}
}

// frameWireBytes is the exact on-wire size of one sequenced v2 batch
// frame: 8-byte sequence header, 8-byte batch header, 13 bytes per
// occupied slot. The v3 codec prices its precodec (baseline) accounting
// with it; it is no longer what crosses the wire.
func frameWireBytes(slots int) uint64 { return 8 + 8 + 13*uint64(slots) }
