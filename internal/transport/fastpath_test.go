package transport

import (
	"net"
	"sync"
	"testing"

	"repro/internal/token"
)

// TestBridgeSteadyStateZeroAlloc is the fast-path allocation gate: once a
// bridge pair has warmed up (handshake done, scratch buffers at
// capacity), a full exchange — encode, submit to the persistent
// writer, read the peer's frame, commit — must not allocate. AllocsPerRun
// counts process-global mallocs, so the background peer drives the same
// alloc-free path with preallocated batches. Timeouts stay zero: arming a
// net.Pipe deadline allocates a timer, and the production coordinator path
// measures its deadlines against real conns, not this gate.
func TestBridgeSteadyStateZeroAlloc(t *testing.T) {
	c1, c2 := net.Pipe()
	const n = 64

	peer := NewBridgeConfig("peer", c2, BridgeConfig{})
	peerIn := []*token.Batch{token.NewBatch(n)}
	peerOut := []*token.Batch{token.NewBatch(n)}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for peer.Err() == nil {
			select {
			case <-stop:
				return
			default:
			}
			peerIn[0].Reset(n)
			peerIn[0].Put(1, token.Token{Data: 42, Valid: true})
			peer.TickBatch(n, peerIn, peerOut)
		}
	}()

	br := NewBridgeConfig("local", c1, BridgeConfig{})
	in := []*token.Batch{token.NewBatch(n)}
	out := []*token.Batch{token.NewBatch(n)}
	tick := func() {
		in[0].Reset(n)
		in[0].Put(0, token.Token{Data: 7, Valid: true})
		in[0].Put(1, token.Token{Data: 8, Valid: true})
		in[0].Put(2, token.Token{Data: 9, Valid: true, Last: true})
		br.TickBatch(n, in, out)
	}
	// Warm up until the encode buffer, the bufio layers and the peer's
	// decoded batch have all reached capacity.
	for i := 0; i < 16; i++ {
		tick()
	}
	if err := br.Err(); err != nil {
		t.Fatal(err)
	}

	allocs := testing.AllocsPerRun(100, tick)
	close(stop)
	br.Close()
	peer.Close()
	wg.Wait()
	if allocs != 0 {
		t.Errorf("steady-state exchange allocates %.1f times per tick, want 0", allocs)
	}
}
