package transport

import (
	"net"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/token"
)

// TestBridgeMetricsCleanRun drives two bridges over an in-memory pipe
// for a fixed number of rounds and checks the instrumented side's wire
// accounting to the byte: batches and bytes must match the protocol math
// exactly (one hello plus one frame per round), and every
// failure-recovery counter must stay at zero on a clean run.
func TestBridgeMetricsCleanRun(t *testing.T) {
	c1, c2 := net.Pipe()
	const rounds = 8
	const n = 16

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		peer := NewBridge("peer", c2)
		for r := 0; r < rounds; r++ {
			tickOnce(peer, n, 100+uint64(r))
		}
	}()

	reg := obs.NewRegistry("transport")
	br := NewBridge("local", c1)
	br.EnableMetrics(reg)
	for r := 0; r < rounds; r++ {
		out := tickOnce(br, n, uint64(r))
		if tok := out.At(0); !tok.Valid {
			t.Fatalf("round %d: no token from peer", r)
		}
	}
	wg.Wait()
	if err := br.Err(); err != nil {
		t.Fatal(err)
	}

	s := reg.Snapshot()
	get := func(metric string) uint64 {
		return s.Counters[obs.Label(metric, "bridge", "local")]
	}
	if got := get("transport_batches_sent_total"); got != rounds {
		t.Errorf("batches_sent = %d, want %d", got, rounds)
	}
	if got := get("transport_batches_recv_total"); got != rounds {
		t.Errorf("batches_recv = %d, want %d", got, rounds)
	}
	// Each side wrote one hello and one single-slot frame per round. The
	// byte counters come from the connection shims, so the expectation is
	// the exact v3 encoding of the frames this test makes each side send —
	// and must agree with the bridge's own wire accessors.
	frameBytes := func(data func(r uint64) uint64) uint64 {
		total := uint64(helloSize)
		for r := uint64(0); r < rounds; r++ {
			b := token.NewBatch(n)
			b.Put(0, token.Token{Data: data(r), Valid: true})
			total += uint64(len(appendFrame(nil, r, b)))
		}
		return total
	}
	wantSent := frameBytes(func(r uint64) uint64 { return r })
	wantRecv := frameBytes(func(r uint64) uint64 { return 100 + r })
	if got := get("transport_bytes_sent_total"); got != wantSent {
		t.Errorf("bytes_sent = %d, want %d", got, wantSent)
	}
	if got := get("transport_bytes_recv_total"); got != wantRecv {
		t.Errorf("bytes_recv = %d, want %d", got, wantRecv)
	}
	if got := br.WireBytesSent(); got != wantSent {
		t.Errorf("WireBytesSent = %d, want %d", got, wantSent)
	}
	if got := br.WireBytesRecv(); got != wantRecv {
		t.Errorf("WireBytesRecv = %d, want %d", got, wantRecv)
	}
	// The precodec counter prices the same sent traffic at the v2 codec's
	// fixed framing; on this single-slot-per-round run the v3 stream must
	// come in strictly under it.
	wantPre := uint64(helloSize) + rounds*frameWireBytes(1)
	if got := get("transport_precodec_bytes_total"); got != wantPre {
		t.Errorf("precodec_bytes = %d, want %d", got, wantPre)
	}
	if wantSent >= wantPre {
		t.Errorf("v3 wire bytes %d not below the v2 baseline %d", wantSent, wantPre)
	}
	if got := s.Histograms[obs.Label("transport_stall_nanos", "bridge", "local")]; got.Count != rounds {
		t.Errorf("stall_nanos count = %d, want %d", got.Count, rounds)
	}
	for _, m := range []string{"transport_seq_gaps_total", "transport_errors_total"} {
		if got := get(m); got != 0 {
			t.Errorf("%s = %d on a clean run, want 0", m, got)
		}
	}
}
