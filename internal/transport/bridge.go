package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/token"
)

// This file is the distributed token transport. As in the paper, a
// Bridge only exchanges batches: each side ships its window's batch and
// blocks until the peer's arrives. It heals nothing itself. Around that
// exchange it adds:
//
//   - a connect-time handshake validating protocol version, batch step
//     size, (optionally) a topology hash and the resume sequence number,
//     so mismatched halves fail fast with a descriptive error instead of
//     desynchronising;
//   - a monotonically increasing sequence number on every batch frame,
//     checked on receipt, so a peer that lost step is caught at once;
//   - a deadline on every read (when the connection supports deadlines,
//     as net.Conn does), so a hung peer surfaces as an error instead of
//     blocking target time forever;
//   - a latched error on any failure: the bridge stops touching the
//     network and emits empty batches, so the local runner never hangs on
//     a dead peer and the run-dist coordinator regains control. The
//     coordinator heals the run by rewinding every partition to a
//     coordinated checkpoint and reviving the bridge with Reset — the one
//     recovery path.

// Protocol constants for the framed bridge stream.
const (
	helloMagic   uint32 = 0x4653_4b54 // "FSKT"
	helloVersion uint16 = 3           // bumped for the v3 run-length frame codec
	helloSize           = 32
)

// ErrClosed is latched on a bridge another goroutine has Closed; any
// in-flight or subsequent TickBatch fails fast instead of blocking.
var ErrClosed = errors.New("transport: bridge closed")

// deadlineConn is the optional connection capability used for timeouts.
type deadlineConn interface {
	SetReadDeadline(t time.Time) error
}

// BridgeConfig tunes the transport. The zero value blocks indefinitely
// and validates only the batch step at handshake time.
type BridgeConfig struct {
	// ReadTimeout bounds each batch read (and the handshake read) when
	// the connection supports deadlines. Zero blocks forever.
	ReadTimeout time.Duration
	// TopologyHash, when non-zero on both sides, must match at handshake
	// time: it guards against wiring two halves of different topologies
	// (or different config revisions) together.
	TopologyHash uint64
}

// Bridge splices one token stream endpoint of a distributed simulation.
// It forwards everything received on its single local port to the peer
// and emits everything the peer sends. Both sides must advance in
// identical batch steps (validated by the handshake).
//
// A Bridge is driven from a single scheduler goroutine; it is not safe
// for concurrent TickBatch calls.
type Bridge struct {
	name string
	cfg  BridgeConfig
	conn io.ReadWriter
	w    *bufio.Writer
	r    *bufio.Reader

	// connMu guards the conn pointer only: Close may run concurrently
	// with the scheduler goroutine swapping connections in Reset.
	connMu sync.Mutex
	// closed is set by Close and cleared by Reset.
	closed atomic.Bool

	err error

	handshaken bool
	step       int

	nextSend uint64 // sequence number for the next batch we send
	nextRecv uint64 // sequence number we expect from the peer next

	// Wire-level byte accounting, fed by the counting shim installed
	// around the connection in setConn — the total is what actually
	// crossed the wire (frames, handshakes, partial writes), not a
	// recomputation. Atomic because it is counted from the writer
	// goroutine. precodec tracks what the same traffic would have cost
	// under the v2 fixed-width codec.
	wireSent atomic.Uint64
	precodec uint64

	// Persistent writer goroutine: one per bridge, started lazily on the
	// first submit and living across exchanges, so the steady-state send
	// path is a channel round-trip instead of a goroutine+channel
	// allocation per exchange. writerMu serialises submits against
	// stopWriter; the buffered channels guarantee a submitted request is
	// always drained and always answered, even across a concurrent Close.
	writerMu   sync.Mutex
	writerUp   bool
	writerCh   chan []byte
	writerDone chan error

	// Current-frame encode state for the overlapped exchange: sendBuf
	// holds the encoded frame for sendSeq once sendReady; sendSubmitted
	// means the writer goroutine holds an in-flight request for it (set
	// by the eager StartBatch path, collected by the next exchange).
	sendBuf       []byte
	sendSeq       uint64
	sendReady     bool
	sendSubmitted bool
}

// countingWriter is the wire-truth shim installed between the bufio layer
// and the connection: every byte that actually crosses (including torn
// partial writes) is counted, so the byte total does not recompute frame
// sizes.
type countingWriter struct {
	w io.Writer
	n *atomic.Uint64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(uint64(n))
	return n, err
}

// NewBridgeConfig wraps a connection with a read timeout and topology
// hash (the zero BridgeConfig blocks and checks only the step). Each side
// of the distributed simulation creates one Bridge over its end of the
// connection and Connects it where the remote half of the topology would
// attach.
func NewBridgeConfig(name string, conn io.ReadWriter, cfg BridgeConfig) *Bridge {
	b := &Bridge{name: name, cfg: cfg}
	b.setConn(conn)
	return b
}

func (b *Bridge) setConn(conn io.ReadWriter) {
	b.connMu.Lock()
	b.conn = conn
	b.connMu.Unlock()
	b.w = bufio.NewWriter(&countingWriter{w: conn, n: &b.wireSent})
	b.r = bufio.NewReader(conn)
}

// currentConn reads the connection pointer under the lock; callers that
// only need its optional capabilities (Closer, deadlines) use this so
// they never race a concurrent Close/Reset swap.
func (b *Bridge) currentConn() io.ReadWriter {
	b.connMu.Lock()
	defer b.connMu.Unlock()
	return b.conn
}

// Err reports the first transport error encountered (the simulation
// cannot continue past one until Reset; subsequent batches are empty).
func (b *Bridge) Err() error { return b.err }

// Received reports how many batches the peer has delivered, which tells
// the caller the last target cycle the peer confirmed.
func (b *Bridge) Received() uint64 { return b.nextRecv }

// WireBytesSent reports the exact byte total written to the connection
// (frames and handshakes included), accumulated across Resets. Safe to
// read after the run completes.
func (b *Bridge) WireBytesSent() uint64 { return b.wireSent.Load() }

// PrecodecBytes reports what the bridge's sent traffic would have cost
// under the v2 fixed-width codec — the denominator-free baseline for the
// codec's compression ratio.
func (b *Bridge) PrecodecBytes() uint64 { return b.precodec }

// writerLoop is the persistent writer goroutine's body: write each frame,
// flush, reply. On failure it closes the connection so a reader blocked
// on the reply side of the exchange fails within one syscall instead of
// one timeout. It always replies — the done channel is
// buffered, so the reply survives even when the collector arrives after a
// stopWriter — and exits when the request channel closes.
func (b *Bridge) writerLoop(ch chan []byte, done chan error) {
	for frame := range ch {
		_, err := b.w.Write(frame)
		if err == nil {
			err = b.w.Flush()
		}
		if err != nil {
			b.closeConn()
		}
		done <- err
	}
}

// submitWrite hands the encoded sendBuf to the writer goroutine,
// starting it lazily, and reports false when the bridge is closed. The
// channel send cannot block: the writer is always idle (its previous
// reply collected) when the scheduler submits, and the buffer absorbs the
// race with a concurrent Close.
func (b *Bridge) submitWrite() bool {
	b.writerMu.Lock()
	defer b.writerMu.Unlock()
	if !b.writerUp {
		if b.closed.Load() {
			return false
		}
		b.writerCh = make(chan []byte, 1)
		b.writerDone = make(chan error, 1)
		go b.writerLoop(b.writerCh, b.writerDone)
		b.writerUp = true
	}
	b.writerCh <- b.sendBuf
	return true
}

// stopWriter retires the writer goroutine. Safe from any goroutine: an
// in-flight request is still drained (range reads buffered items before
// observing the close) and its reply still delivered, so a concurrent
// exchange never loses its reply.
func (b *Bridge) stopWriter() {
	b.writerMu.Lock()
	if b.writerUp {
		close(b.writerCh)
		b.writerUp = false
	}
	b.writerMu.Unlock()
}

// encodeFrame encodes the batch for seq into the reusable sendBuf and
// charges the precodec (v2-equivalent) byte accounting.
func (b *Bridge) encodeFrame(seq uint64, in *token.Batch) {
	b.sendBuf = appendFrame(b.sendBuf[:0], seq, in)
	b.sendSeq = seq
	b.sendReady = true
	b.precodec += frameWireBytes(in.Occupied())
}

// Reset revives a bridge (possibly errored or closed) onto a fresh
// connection, rewinding both sequence counters to seq. It is the only
// recovery path: after restoring a dead peer from a checkpoint taken at
// cycle C, both sides resume the token stream at batch C/step, so the
// bridge must forget everything after that point. The next TickBatch
// re-handshakes on the new connection, which checks that the peer
// resumes at the same batch.
func (b *Bridge) Reset(conn io.ReadWriter, seq uint64) {
	if conn != b.currentConn() {
		// Keep the connection alive when a fresh bridge is reset onto the
		// conn it was built with (the respawned peer's pattern).
		b.closeConn()
	}
	// Retire the previous writer goroutine before swapping connections.
	// An aborted epoch can leave an eager StartBatch submit uncollected;
	// the closed old connection guarantees the writer replies, so drain
	// that reply here and the request/reply protocol is idle again.
	b.stopWriter()
	if b.sendSubmitted {
		b.closeConn()
		<-b.writerDone
		b.sendSubmitted = false
	}
	b.sendReady = false
	b.setConn(conn)
	b.closed.Store(false)
	b.err = nil
	b.handshaken = false
	b.step = 0
	b.nextSend = seq
	b.nextRecv = seq
}

func (b *Bridge) closeConn() {
	if c, ok := b.currentConn().(io.Closer); ok {
		c.Close()
	}
}

// Close aborts the bridge from any goroutine: the underlying connection
// is closed, failing any blocked read or write immediately. The
// scheduler goroutine's next TickBatch latches ErrClosed. Close is
// idempotent and safe concurrently with TickBatch — it is the
// coordinator's lever for yanking a shard out of a doomed run without
// waiting for timeouts.
func (b *Bridge) Close() error {
	b.closed.Store(true)
	b.closeConn()
	b.stopWriter()
	return nil
}

// Name implements fame.Endpoint.
func (b *Bridge) Name() string { return b.name }

// NumPorts implements fame.Endpoint.
func (b *Bridge) NumPorts() int { return 1 }

// fail latches err, wrapped with the bridge name.
func (b *Bridge) fail(err error) {
	if b.err == nil {
		b.err = fmt.Errorf("transport: bridge %q: %w", b.name, err)
	}
}

// TickBatch implements fame.Endpoint: ship the local batch and block for
// the peer's batch covering the same target window, handshaking first.
// Any failure is latched; from then on TickBatch is a no-op until Reset,
// so the local runner keeps advancing with empty input from the dead
// partition instead of hanging.
func (b *Bridge) TickBatch(n int, in, out []*token.Batch) {
	if b.err != nil {
		return
	}
	if b.closed.Load() {
		b.fail(ErrClosed)
		return
	}
	if !b.handshaken {
		if err := b.handshake(n); err != nil {
			b.fail(err)
			return
		}
	}
	if n != b.step {
		b.fail(fmt.Errorf("local step changed from %d to %d mid-run", b.step, n))
		return
	}
	if err := b.exchange(n, in[0], out[0]); err != nil {
		b.fail(err)
	}
}

// handshake exchanges and validates hello frames. It also carries each
// side's resume sequence, which must match: both sides of a rewound run
// restart the token stream at the same batch. The hello write runs
// concurrently with the read so the symmetric exchange cannot deadlock on
// unbuffered connections.
func (b *Bridge) handshake(step int) error {
	var hello [helloSize]byte
	binary.BigEndian.PutUint32(hello[0:4], helloMagic)
	binary.BigEndian.PutUint16(hello[4:6], helloVersion)
	// hello[6:8] flags, reserved.
	binary.BigEndian.PutUint32(hello[8:12], uint32(step))
	binary.BigEndian.PutUint64(hello[16:24], b.cfg.TopologyHash)
	binary.BigEndian.PutUint64(hello[24:32], b.nextRecv)

	writeDone := make(chan error, 1)
	go func() {
		err := func() error {
			if _, err := b.w.Write(hello[:]); err != nil {
				return err
			}
			return b.w.Flush()
		}()
		if err != nil {
			b.closeConn() // unblock the reader if the peer is silent
		}
		writeDone <- err
	}()

	b.armReadDeadline()
	var peer [helloSize]byte
	_, readErr := io.ReadFull(b.r, peer[:])
	if readErr != nil {
		b.closeConn() // unblock the writer if it is stuck
	}
	writeErr := <-writeDone
	if readErr != nil && writeErr != nil &&
		errors.Is(readErr, io.ErrClosedPipe) && !errors.Is(writeErr, io.ErrClosedPipe) {
		readErr = nil
	}
	if readErr != nil {
		return fmt.Errorf("handshake read: %w", readErr)
	}
	if writeErr != nil {
		return fmt.Errorf("handshake write: %w", writeErr)
	}

	if magic := binary.BigEndian.Uint32(peer[0:4]); magic != helloMagic {
		return fmt.Errorf("handshake: bad magic %#x (peer is not a token bridge?)", magic)
	}
	if v := binary.BigEndian.Uint16(peer[4:6]); v != helloVersion {
		return fmt.Errorf("handshake: protocol version %d, local %d", v, helloVersion)
	}
	if ps := int(binary.BigEndian.Uint32(peer[8:12])); ps != 0 && step != 0 && ps != step {
		return fmt.Errorf("handshake: peer batch step %d cycles, local step %d (link latencies must match)", ps, step)
	}
	if ph := binary.BigEndian.Uint64(peer[16:24]); ph != 0 && b.cfg.TopologyHash != 0 && ph != b.cfg.TopologyHash {
		return fmt.Errorf("handshake: topology hash %#x, local %#x (the two halves describe different targets)", ph, b.cfg.TopologyHash)
	}
	b.precodec += helloSize
	if resume := binary.BigEndian.Uint64(peer[24:32]); resume != b.nextSend {
		return fmt.Errorf("handshake: peer resumes at batch %d, local next batch is %d (the two sides restored different checkpoints)", resume, b.nextSend)
	}
	b.step = step
	b.handshaken = true
	return nil
}

// StartBatch is the eager half of an overlapped exchange (the
// fame.EagerStarter fast path): it encodes and submits this window's
// frame to the persistent writer as soon as the local batch is ready, so
// every cut-point bridge in a partition has its send in flight before any
// of them blocks on a receive — K cut points cost ~1 round-trip per
// window instead of K serial round-trips. It is a best-effort no-op
// whenever the bridge is not in clean steady state (unhandshaken,
// errored, closed, or step mismatch); the following TickBatch then
// performs the full synchronous exchange, including the first window's
// handshake.
func (b *Bridge) StartBatch(n int, in []*token.Batch) {
	if b.err != nil || b.closed.Load() || !b.handshaken {
		return
	}
	if n != b.step || b.sendSubmitted {
		return
	}
	b.encodeFrame(b.nextSend, in[0])
	if b.submitWrite() {
		b.sendSubmitted = true
	}
}

// exchange performs one sequenced batch swap: send the current batch and
// read the peer's, which must carry the expected sequence number. The
// send runs on the persistent writer goroutine concurrently with the
// read, so the symmetric exchange cannot deadlock on unbuffered
// connections — and when StartBatch already put this window's frame in
// flight, the send cost has fully overlapped whatever the scheduler did
// since.
func (b *Bridge) exchange(n int, in, out *token.Batch) error {
	cur := b.nextSend
	if !b.sendReady || b.sendSeq != cur {
		b.encodeFrame(cur, in)
	}
	if !b.sendSubmitted {
		if !b.submitWrite() {
			return ErrClosed
		}
		b.sendSubmitted = true
	}

	b.armReadDeadline()
	readErr := b.readExpected(out)
	if readErr != nil {
		b.closeConn() // unblock the writer if it is stuck mid-write
	}
	writeErr := <-b.writerDone
	b.sendSubmitted = false
	// When both sides fail, one of them closed the connection to unblock
	// the other: a closed-pipe error is then the secondary symptom, not
	// the cause, so report the genuine failure.
	if writeErr != nil && readErr != nil &&
		errors.Is(writeErr, io.ErrClosedPipe) && !errors.Is(readErr, io.ErrClosedPipe) {
		writeErr = nil
	}
	if writeErr != nil {
		return fmt.Errorf("send batch %d: %w", cur, writeErr)
	}
	if readErr != nil {
		return fmt.Errorf("recv batch %d: %w", b.nextRecv, readErr)
	}
	if out.N != n {
		return fmt.Errorf("peer batch covers %d cycles, local step is %d", out.N, n)
	}
	// Committed: the peer has our batch for this window, and we consumed
	// its batch.
	b.sendReady = false
	b.nextSend = cur + 1
	b.nextRecv++
	return nil
}

// readExpected reads the peer's frame for this window. Any sequence
// number but the expected one means the two sides lost step, which only a
// rewind can heal.
func (b *Bridge) readExpected(out *token.Batch) error {
	seq, err := readFrameSeq(b.r)
	if err != nil {
		return err
	}
	if seq != b.nextRecv {
		return fmt.Errorf("sequence gap: got batch %d, expected %d", seq, b.nextRecv)
	}
	return readBatchV3(b.r, out)
}

func (b *Bridge) armReadDeadline() {
	if b.cfg.ReadTimeout <= 0 {
		return
	}
	if dc, ok := b.currentConn().(deadlineConn); ok {
		dc.SetReadDeadline(time.Now().Add(b.cfg.ReadTimeout))
	}
}
