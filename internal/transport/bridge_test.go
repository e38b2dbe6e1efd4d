package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/token"
)

// peerHello speaks the raw handshake from the test side: write a valid
// hello and consume the bridge's. It runs inside helper goroutines, so
// failures panic rather than calling t.Fatal.
func peerHello(conn net.Conn, step int, topoHash, resume uint64) {
	var hello [helloSize]byte
	binary.BigEndian.PutUint32(hello[0:4], helloMagic)
	binary.BigEndian.PutUint16(hello[4:6], helloVersion)
	binary.BigEndian.PutUint32(hello[8:12], uint32(step))
	binary.BigEndian.PutUint64(hello[16:24], topoHash)
	binary.BigEndian.PutUint64(hello[24:32], resume)
	done := make(chan error, 1)
	go func() {
		_, err := conn.Write(hello[:])
		done <- err
	}()
	var peer [helloSize]byte
	if _, err := io.ReadFull(conn, peer[:]); err != nil {
		panic(fmt.Sprintf("peerHello read: %v", err))
	}
	if err := <-done; err != nil {
		panic(fmt.Sprintf("peerHello write: %v", err))
	}
}

// tickOnce drives one TickBatch with a single-token input batch and
// returns the output batch.
func tickOnce(br *Bridge, n int, data uint64) *token.Batch {
	in := token.NewBatch(n)
	in.Put(0, token.Token{Data: data, Valid: true})
	out := token.NewBatch(n)
	br.TickBatch(n, []*token.Batch{in}, []*token.Batch{out})
	return out
}

// TestBridgePeerClosesMidBatch: the peer handshakes, then dies partway
// through a frame. The bridge must latch a wrapped, descriptive error and
// subsequent TickBatch calls must be silent no-ops.
func TestBridgePeerClosesMidBatch(t *testing.T) {
	c1, c2 := net.Pipe()
	go func() {
		peerHello(c2, 16, 0, 0)
		// Read the bridge's first frame concurrently (net.Pipe is
		// synchronous), then send a truncated frame and vanish.
		go io.Copy(io.Discard, c2)
		// seq 0, N=16, then vanish before the run count: a torn v3 frame.
		c2.Write([]byte{0, 16})
		c2.Close()
	}()
	br := NewBridge("wedge", c1)
	out := tickOnce(br, 16, 1)
	err := br.Err()
	if err == nil {
		t.Fatal("peer death mid-batch not detected")
	}
	// Which half of the exchange trips first depends on scheduling: the
	// close usually fails the pending recv, but can land while the bridge
	// is still writing its own frame, failing the send instead. Either
	// way the latched error must name the bridge and the batch exchange.
	if !strings.Contains(err.Error(), `bridge "wedge"`) ||
		!(strings.Contains(err.Error(), "recv batch") || strings.Contains(err.Error(), "send batch")) {
		t.Errorf("error not descriptive: %q", err)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("error does not unwrap to the underlying cause: %v", err)
	}

	// Subsequent ticks: no-ops that leave the output empty.
	out = tickOnce(br, 16, 2)
	if !out.IsEmpty() {
		t.Error("TickBatch after permanent error produced tokens")
	}
	if got := br.Err(); got != err {
		t.Errorf("error changed after no-op tick: %v -> %v", err, got)
	}
}

// failAfterConn passes through to the underlying conn until limit bytes
// have been written, then fails every write: a short-write fault.
type failAfterConn struct {
	net.Conn
	mu      sync.Mutex
	written int
	limit   int
}

func (c *failAfterConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.written+len(p) > c.limit {
		k := c.limit - c.written
		if k < 0 {
			k = 0
		}
		if k > 0 {
			n, _ := c.Conn.Write(p[:k])
			c.written += n
		}
		return k, fmt.Errorf("simulated short write (NIC buffer exhausted)")
	}
	n, err := c.Conn.Write(p)
	c.written += n
	return n, err
}

// TestBridgeShortWrite: the local connection starts failing writes after
// the handshake. The bridge must surface a wrapped send error, not hang or
// corrupt state.
func TestBridgeShortWrite(t *testing.T) {
	c1, c2 := net.Pipe()
	go func() {
		peerHello(c2, 16, 0, 0)
		io.Copy(io.Discard, c2) // consume whatever arrives until the fault
	}()
	br := NewBridge("short", &failAfterConn{Conn: c1, limit: helloSize + 4})
	tickOnce(br, 16, 7)
	err := br.Err()
	if err == nil {
		t.Fatal("short write not detected")
	}
	if !strings.Contains(err.Error(), "send batch") || !strings.Contains(err.Error(), "short write") {
		t.Errorf("error not descriptive: %q", err)
	}
	if out := tickOnce(br, 16, 8); !out.IsEmpty() {
		t.Error("TickBatch after short-write error produced tokens")
	}
}

// TestBridgeTopologyHashMismatch: both sides set a topology hash and they
// disagree — the handshake must fail fast with a descriptive error.
func TestBridgeTopologyHashMismatch(t *testing.T) {
	c1, c2 := net.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	var peerErr error
	go func() {
		defer wg.Done()
		peer := NewBridgeConfig("peer", c2, BridgeConfig{TopologyHash: 0xbbbb})
		tickOnce(peer, 16, 0)
		peerErr = peer.Err()
	}()
	br := NewBridgeConfig("local", c1, BridgeConfig{TopologyHash: 0xaaaa})
	tickOnce(br, 16, 0)
	wg.Wait()
	for _, err := range []error{br.Err(), peerErr} {
		if err == nil {
			t.Fatal("topology hash mismatch not detected")
		}
		if !strings.Contains(err.Error(), "topology") {
			t.Errorf("error not descriptive: %q", err)
		}
	}
}

// TestBridgeDeadPeerTimesOut: the peer handshakes then goes silent with
// the connection open. With a read deadline and no way to reconnect, the
// bridge must give up in bounded time instead of blocking forever, and
// count the latched error exactly once.
func TestBridgeDeadPeerTimesOut(t *testing.T) {
	c1, c2 := net.Pipe()
	go func() {
		peerHello(c2, 16, 0, 0)
		go io.Copy(io.Discard, c2)
		// ... and then nothing: the peer is hung, not dead.
	}()
	redials := 0
	br := NewBridgeConfig("patient", c1, BridgeConfig{
		ReadTimeout:   50 * time.Millisecond,
		WriteTimeout:  50 * time.Millisecond,
		MaxReconnects: 2,
		BackoffBase:   5 * time.Millisecond,
		Redial: func() (io.ReadWriter, error) {
			redials++
			return nil, fmt.Errorf("no path to host")
		},
	})
	reg := obs.NewRegistry("deadpeer")
	br.EnableMetrics(reg)
	start := time.Now()
	tickOnce(br, 16, 1)
	elapsed := time.Since(start)
	if br.Err() == nil {
		t.Fatal("hung peer not detected")
	}
	tickOnce(br, 16, 2)
	if got := reg.Snapshot().Counters[obs.Label("transport_errors_total", "bridge", "patient")]; got != 1 {
		t.Errorf("transport_errors_total = %d, want 1", got)
	}
	if elapsed > 2*time.Second {
		t.Errorf("gave up after %v; deadline+backoff should bound this well under 2s", elapsed)
	}
	if redials != 2 {
		t.Errorf("redial attempts = %d, want 2 (bounded retry)", redials)
	}
}

// TestBridgeReconnectResync is the headline robustness property: the
// connection between two live peers is torn down mid-run; both sides
// reconnect with backoff, re-handshake, resynchronise from sequence
// numbers, and the token streams arrive complete, in order, without
// duplicates — as if the drop never happened.
func TestBridgeReconnectResync(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()

	accepted := make(chan net.Conn, 4)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- conn
		}
	}()
	dial := func() (io.ReadWriter, error) { return net.Dial("tcp", addr) }
	accept := func() (io.ReadWriter, error) {
		select {
		case c := <-accepted:
			return c, nil
		case <-time.After(2 * time.Second):
			return nil, fmt.Errorf("no incoming connection")
		}
	}

	connA, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	connB, err := accept()
	if err != nil {
		t.Fatal(err)
	}

	cfg := BridgeConfig{
		ReadTimeout:   time.Second,
		WriteTimeout:  time.Second,
		MaxReconnects: 5,
		BackoffBase:   5 * time.Millisecond,
		TopologyHash:  0x1234,
	}
	cfgA, cfgB := cfg, cfg
	cfgA.Redial = dial
	cfgB.Redial = accept
	brA := NewBridgeConfig("A", connA, cfgA)
	brB := NewBridgeConfig("B", connB, cfgB)
	reg := obs.NewRegistry("resync")
	brA.EnableMetrics(reg)

	const rounds = 10
	const n = 16
	const killAfter = 3
	killed := make(chan struct{})

	drive := func(br *Bridge, base uint64, kill func()) error {
		for r := 0; r < rounds; r++ {
			out := tickOnce(br, n, base+uint64(r))
			if br.Err() != nil {
				return fmt.Errorf("round %d: %w", r, br.Err())
			}
			tok := out.At(0)
			if !tok.Valid || tok.Data%1000 != uint64(r) {
				return fmt.Errorf("round %d: got token %v, want peer round %d", r, tok, r)
			}
			if r == killAfter-1 && kill != nil {
				kill()
			}
		}
		return nil
	}

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		errs <- drive(brA, 2000, func() {
			// Sever the current connection out from under both sides.
			connA.(net.Conn).Close()
			connB.(net.Conn).Close()
			close(killed)
		})
	}()
	go func() {
		defer wg.Done()
		errs <- drive(brB, 5000, nil)
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	<-killed
	if brA.Reconnects() == 0 && brB.Reconnects() == 0 {
		t.Error("connection was severed but neither side reconnected")
	}
	if got := brA.Received(); got != rounds {
		t.Errorf("A received %d batches, want %d", got, rounds)
	}
	if got := brB.Received(); got != rounds {
		t.Errorf("B received %d batches, want %d", got, rounds)
	}
	// The obs mirror must agree with the bridge's own recovery ledger.
	s := reg.Snapshot()
	if got := s.Counters[obs.Label("transport_reconnects_total", "bridge", "A")]; got != uint64(brA.Reconnects()) {
		t.Errorf("obs reconnects = %d, Reconnects() = %d", got, brA.Reconnects())
	}
	if got := s.Counters[obs.Label("transport_batches_recv_total", "bridge", "A")]; got != rounds {
		t.Errorf("obs batches_recv = %d, want %d", got, rounds)
	}
}
