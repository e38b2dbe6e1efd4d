package transport

import (
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/token"
)

// TestCloseUnblocksBlockedExchange: the peer handshakes and then goes
// silent, and there is no read deadline, so TickBatch blocks on the
// peer's batch indefinitely. Close from another goroutine — the
// coordinator's CloseBridges lever — must return it promptly with a
// latched error.
func TestCloseUnblocksBlockedExchange(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c2.Close()
	go func() {
		peerHello(c2, 8, 0, 0)
		io.Copy(io.Discard, c2) // swallow the bridge's frame, send nothing
	}()
	br := NewBridgeConfig("blocked", c1, BridgeConfig{})

	done := make(chan struct{})
	go func() {
		defer close(done)
		in := []*token.Batch{token.NewBatch(8)}
		out := []*token.Batch{token.NewBatch(8)}
		br.TickBatch(8, in, out) // blocks on the peer's batch
	}()

	time.Sleep(50 * time.Millisecond) // let it reach the blocking read
	select {
	case <-done:
		t.Fatal("TickBatch returned before Close; the peer sent no batch")
	default:
	}
	br.Close()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("TickBatch still blocked 1s after Close")
	}
	if br.Err() == nil {
		t.Fatal("closed bridge reports no error")
	}
}

// A closed bridge must fail fast on the next TickBatch, not touch the
// network.
func TestTickBatchAfterClose(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	br := NewBridgeConfig("closed", client, BridgeConfig{})
	br.Close()
	in := []*token.Batch{token.NewBatch(4)}
	out := []*token.Batch{token.NewBatch(4)}
	doneCh := make(chan struct{})
	go func() {
		br.TickBatch(4, in, out)
		close(doneCh)
	}()
	select {
	case <-doneCh:
	case <-time.After(time.Second):
		t.Fatal("TickBatch on a closed bridge blocked")
	}
	if br.Err() == nil {
		t.Fatal("TickBatch on closed bridge did not latch an error")
	}
}

// Reset must revive a Closed bridge (closed flag and error cleared) so
// the coordinator can re-use the same Bridge value across recovery
// epochs.
func TestResetRevivesClosedBridge(t *testing.T) {
	a1, b1 := net.Pipe()
	defer b1.Close()
	br := NewBridgeConfig("revive", a1, BridgeConfig{})
	br.Close()
	a2, b2 := net.Pipe()
	defer a2.Close()
	defer b2.Close()
	br.Reset(a2, 0)
	if br.Err() != nil {
		t.Fatalf("revived bridge still errored: %v", br.Err())
	}
	// The revived bridge exchanges again.
	peer := NewBridgeConfig("peer", b2, BridgeConfig{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tickOnce(peer, 8, 2)
	}()
	if out := tickOnce(br, 8, 1); br.Err() != nil || out.At(0).Data != 2 {
		t.Fatalf("revived bridge exchange: err %v, got %v", br.Err(), out.At(0))
	}
	<-done
	// And Close works again after the revival.
	br.Close()
	if !br.closed.Load() {
		t.Fatal("second Close did not mark the bridge closed")
	}
}
