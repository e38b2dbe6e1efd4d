package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

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
	br := NewBridgeConfig("wedge", c1, BridgeConfig{})
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
	br := NewBridgeConfig("short", &failAfterConn{Conn: c1, limit: helloSize + 4}, BridgeConfig{})
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
// the connection open. With a read deadline the bridge must give up in
// bounded time instead of blocking forever and name itself in the latched
// error.
func TestBridgeDeadPeerTimesOut(t *testing.T) {
	c1, c2 := net.Pipe()
	go func() {
		peerHello(c2, 16, 0, 0)
		go io.Copy(io.Discard, c2)
		// ... and then nothing: the peer is hung, not dead.
	}()
	br := NewBridgeConfig("patient", c1, BridgeConfig{ReadTimeout: 50 * time.Millisecond})
	start := time.Now()
	tickOnce(br, 16, 1)
	elapsed := time.Since(start)
	err := br.Err()
	if err == nil {
		t.Fatal("hung peer not detected")
	}
	if !strings.Contains(err.Error(), `bridge "patient"`) || !strings.Contains(err.Error(), "recv batch 0") {
		t.Errorf("error not descriptive: %q", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("gave up after %v; the read deadline should bound this well under 2s", elapsed)
	}
}

// TestBridgeResumeMismatch: the peer's hello resumes at batch 5 while a
// fresh bridge starts at batch 0 — the two sides restored different
// checkpoints. The handshake must latch an error naming both sequence
// numbers, and no frame may cross the connection afterwards.
func TestBridgeResumeMismatch(t *testing.T) {
	c1, c2 := net.Pipe()
	after := make(chan int, 1)
	go func() {
		peerHello(c2, 16, 0, 5)
		// Anything the bridge writes after the hello is a frame.
		n, _ := io.Copy(io.Discard, c2)
		after <- int(n)
	}()
	// The read deadline only bounds a regression that accepts the hello.
	br := NewBridgeConfig("rewound", c1, BridgeConfig{ReadTimeout: time.Second})
	out := tickOnce(br, 16, 1)
	err := br.Err()
	if err == nil {
		t.Fatal("resume mismatch not detected")
	}
	for _, want := range []string{`bridge "rewound"`, "batch 5", "batch is 0", "different checkpoints"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if br.Received() != 0 || !out.IsEmpty() {
		t.Errorf("received %d batches (output empty: %v) after a failed handshake, want 0", br.Received(), out.IsEmpty())
	}
	tickOnce(br, 16, 2) // latched: a no-op that writes nothing
	br.Close()
	if n := <-after; n != 0 {
		t.Errorf("bridge wrote %d bytes after the rejected handshake, want 0", n)
	}
}

// TestBridgeSequenceMismatch: after one good exchange the peer sends a
// frame whose sequence number is not the expected 1 — a replay of batch 0
// or a skip to batch 2. Nothing resends or discards frames, so either
// must latch an error naming both numbers.
func TestBridgeSequenceMismatch(t *testing.T) {
	for _, bad := range []uint64{0, 2} {
		t.Run(fmt.Sprint("seq", bad), func(t *testing.T) {
			const n = 16
			c1, c2 := net.Pipe()
			go func() {
				defer c2.Close()
				peerHello(c2, n, 0, 0)
				r := bufio.NewReader(c2)
				reply := token.NewBatch(n)
				for _, seq := range []uint64{0, bad} {
					// Consume the bridge's frame, then answer it.
					if _, err := readFrameSeq(r); err != nil {
						return
					}
					if err := readBatchV3(r, token.NewBatch(n)); err != nil {
						return
					}
					if _, err := c2.Write(appendFrame(nil, seq, reply)); err != nil {
						return
					}
				}
			}()
			br := NewBridgeConfig("seq", c1, BridgeConfig{})
			tickOnce(br, n, 1)
			if err := br.Err(); err != nil {
				t.Fatalf("good exchange failed: %v", err)
			}
			tickOnce(br, n, 2)
			err := br.Err()
			if err == nil {
				t.Fatalf("frame with sequence %d accepted in place of 1", bad)
			}
			if want := fmt.Sprintf("got batch %d, expected 1", bad); !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not say %q", err, want)
			}
			if br.Received() != 1 {
				t.Errorf("Received() = %d, want 1", br.Received())
			}
		})
	}
}
