package transport

import (
	"net"
	"sync"
	"testing"

	"repro/internal/token"
)

// TestBridgeWireBytes drives two bridges over an in-memory pipe for a
// fixed number of rounds and checks one side's wire accounting to the
// byte: the sent total must be the exact v3 encoding of one hello plus one
// frame per round, and the precodec total the same traffic priced at the
// v2 codec's fixed framing.
func TestBridgeWireBytes(t *testing.T) {
	c1, c2 := net.Pipe()
	const rounds = 8
	const n = 16

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		peer := NewBridgeConfig("peer", c2, BridgeConfig{})
		for r := 0; r < rounds; r++ {
			tickOnce(peer, n, 100+uint64(r))
		}
	}()

	br := NewBridgeConfig("local", c1, BridgeConfig{})
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

	// The local side wrote one hello and one single-slot frame per round.
	// The byte total comes from the connection shim, so the expectation is
	// the exact v3 encoding of the frames this test makes it send.
	wantSent := uint64(helloSize)
	for r := uint64(0); r < rounds; r++ {
		b := token.NewBatch(n)
		b.Put(0, token.Token{Data: r, Valid: true})
		wantSent += uint64(len(appendFrame(nil, r, b)))
	}
	if got := br.WireBytesSent(); got != wantSent {
		t.Errorf("WireBytesSent = %d, want %d", got, wantSent)
	}
	// On this single-slot-per-round run the v3 stream must come in
	// strictly under the v2 baseline.
	wantPre := uint64(helloSize) + rounds*frameWireBytes(1)
	if got := br.PrecodecBytes(); got != wantPre {
		t.Errorf("PrecodecBytes = %d, want %d", got, wantPre)
	}
	if wantSent >= wantPre {
		t.Errorf("v3 wire bytes %d not below the v2 baseline %d", wantSent, wantPre)
	}
}
