package manager

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"testing"

	"repro/internal/clock"
	"repro/internal/fame"
	"repro/internal/faults"
	"repro/internal/token"
)

// recorder wraps the cluster's fault plan and folds every batch crossing
// an endpoint boundary into a per-(direction, endpoint, port) hash. Each
// key is only ever touched from its endpoint's goroutine, so the fold
// order per key is deterministic under RunParallel too; the mutex only
// guards the shared map.
type recorder struct {
	inner fame.Injector
	mu    sync.Mutex
	sums  map[string]uint64
}

func newRecorder(inner fame.Injector) *recorder {
	return &recorder{inner: inner, sums: make(map[string]uint64)}
}

func (rc *recorder) fold(dir, ep string, port int, start clock.Cycles, b *token.Batch) {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	key := fmt.Sprintf("%s:%s/%d", dir, ep, port)
	rc.mu.Lock()
	put(rc.sums[key])
	rc.mu.Unlock()
	put(uint64(start))
	put(uint64(b.N))
	for _, s := range b.Slots {
		put(uint64(s.Offset))
		put(s.Tok.Data)
		var flags uint64
		if s.Tok.Valid {
			flags |= 1
		}
		if s.Tok.Last {
			flags |= 2
		}
		put(flags)
	}
	sum := h.Sum64()
	rc.mu.Lock()
	rc.sums[key] = sum
	rc.mu.Unlock()
}

func (rc *recorder) FilterInput(ep string, port int, start clock.Cycles, b *token.Batch) {
	if rc.inner != nil {
		rc.inner.FilterInput(ep, port, start, b)
	}
	rc.fold("in", ep, port, start, b)
}

func (rc *recorder) FilterOutput(ep string, port int, start clock.Cycles, b *token.Batch) {
	if rc.inner != nil {
		rc.inner.FilterOutput(ep, port, start, b)
	}
	rc.fold("out", ep, port, start, b)
}

// snapTopo is a 4-node, 2-rack tree; Servers indexes n00, n01, n10, n11
// as 0-3.
func snapTopo() NodeSpec {
	return sw("root",
		sw("tor0", srv("n00", SingleCore), srv("n01", SingleCore)),
		sw("tor1", srv("n10", SingleCore), srv("n11", SingleCore)))
}

// snapCfg enables fault injection with kinds that perturb the token
// streams without scheduling kernel work on the nodes: Corrupt is
// deliberately excluded, because a corrupted frame that happens to decode
// as ARP would schedule node events and make the nodes non-quiescent at
// the checkpoint boundary.
func snapCfg() DeployConfig {
	return DeployConfig{
		LinkLatency: 64,
		Seed:        42,
		FaultConfig: &faults.Config{
			Seed:       7,
			Horizon:    1 << 20,
			PacketDrop: faults.Burst{MeanEvery: 2000, MeanDuration: 200},
			LinkFlap:   faults.Burst{MeanEvery: 3000, MeanDuration: 150},
		},
	}
}

// startStreams drives cross-rack raw-stream traffic: pure data-plane
// load that keeps every node quiescent (checkpointable) while exercising
// both ToRs, the root and the fault injector.
func startStreams(c *Cluster) {
	pairs := [][2]int{{0, 2}, {1, 3}, {3, 0}} // n00->n10, n01->n11, n11->n00
	for _, p := range pairs {
		src, dst := c.Servers[p[0]], c.Servers[p[1]]
		src.StartRawStream(100, dst.MAC(), 256, 1.0, 1<<20)
	}
}

// TestClusterCheckpointDeterminism is the keystone: run N cycles,
// checkpoint, run M more while recording every token batch; then restore
// the checkpoint into a fresh deployment and re-run the same M cycles.
// Token streams, node/switch statistics and the final whole-cluster state
// bytes must be identical — under the sequential runner and the
// goroutine-per-endpoint parallel runner, with fault injection active the
// whole time.
func TestClusterCheckpointDeterminism(t *testing.T) {
	const N, M = 4096, 8192
	for _, parallel := range []bool{false, true} {
		name := "Run"
		if parallel {
			name = "RunParallel"
		}
		t.Run(name, func(t *testing.T) {
			advance := func(c *Cluster, cycles clock.Cycles) {
				t.Helper()
				var err error
				if parallel {
					err = c.Runner.RunParallel(cycles)
				} else {
					err = c.Runner.Run(cycles)
				}
				if err != nil {
					t.Fatal(err)
				}
			}

			c1, err := Deploy(snapTopo(), snapCfg())
			if err != nil {
				t.Fatal(err)
			}
			if c1.Faults == nil {
				t.Fatal("fault injection not wired")
			}
			startStreams(c1)
			advance(c1, N)

			var ck bytes.Buffer
			if err := c1.Checkpoint(&ck); err != nil {
				t.Fatalf("checkpoint at cycle %d: %v", N, err)
			}

			rec1 := newRecorder(c1.Faults)
			c1.Runner.SetInjector(rec1)
			advance(c1, M)
			var final1 bytes.Buffer
			if err := c1.Checkpoint(&final1); err != nil {
				t.Fatal(err)
			}

			c2, err := RestoreCluster(bytes.NewReader(ck.Bytes()), snapTopo(), snapCfg())
			if err != nil {
				t.Fatalf("RestoreCluster: %v", err)
			}
			if got := c2.Runner.Cycle(); got != N {
				t.Fatalf("restored cluster at cycle %d, want %d", got, N)
			}
			rec2 := newRecorder(c2.Faults)
			c2.Runner.SetInjector(rec2)
			advance(c2, M)
			var final2 bytes.Buffer
			if err := c2.Checkpoint(&final2); err != nil {
				t.Fatal(err)
			}

			if !bytes.Equal(final1.Bytes(), final2.Bytes()) {
				t.Errorf("final checkpoints differ (%d vs %d bytes)", final1.Len(), final2.Len())
			}
			if len(rec1.sums) == 0 {
				t.Fatal("recorder saw no batches")
			}
			if len(rec1.sums) != len(rec2.sums) {
				t.Errorf("recorders saw %d vs %d stream keys", len(rec1.sums), len(rec2.sums))
			}
			for key, sum := range rec1.sums {
				if rec2.sums[key] != sum {
					t.Errorf("token stream %q diverged after restore", key)
				}
			}
			for i, n1 := range c1.Servers {
				n2 := c2.Servers[i]
				if n1.Stats() != n2.Stats() {
					t.Errorf("node %s stats diverged: %+v vs %+v", n1.Name(), n1.Stats(), n2.Stats())
				}
			}
		})
	}
}

// TestCheckpointRefusesNonQuiescentNode: a node with in-flight kernel
// work (a ping awaiting its reply) cannot be serialised, and the error
// names it.
func TestCheckpointRefusesNonQuiescentNode(t *testing.T) {
	c, err := Deploy(snapTopo(), DeployConfig{LinkLatency: 64})
	if err != nil {
		t.Fatal(err)
	}
	c.Servers[1].Ping(10, c.Servers[2].IP(), 1, 1000, nil) // n01 -> n10
	if err := c.RunFor(64); err != nil {
		t.Fatal(err)
	}
	err = c.Checkpoint(&bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "n01") {
		t.Fatalf("checkpoint with ping in flight: err = %v", err)
	}
}

// TestRestoreRefusesTopologyMismatch: a checkpoint from one target must
// not load into a structurally different deployment.
func TestRestoreRefusesTopologyMismatch(t *testing.T) {
	c, err := Deploy(snapTopo(), snapCfg())
	if err != nil {
		t.Fatal(err)
	}
	var ck bytes.Buffer
	if err := c.Checkpoint(&ck); err != nil {
		t.Fatal(err)
	}
	small := sw("root", srv("a", SingleCore), srv("b", SingleCore))
	if _, err := RestoreCluster(bytes.NewReader(ck.Bytes()), small, snapCfg()); err == nil ||
		!strings.Contains(err.Error(), "topology hash") {
		t.Fatalf("restore into different topology: err = %v", err)
	}
}

// TestDeployDeterministic: two deployments of the same spec produce
// byte-identical initial checkpoints — this is what the ordered static-ARP
// seeding (and every other sorted-order walk in Deploy) buys.
func TestDeployDeterministic(t *testing.T) {
	var streams [2][]byte
	for i := range streams {
		c, err := Deploy(snapTopo(), snapCfg())
		if err != nil {
			t.Fatal(err)
		}
		var ck bytes.Buffer
		if err := c.Checkpoint(&ck); err != nil {
			t.Fatal(err)
		}
		streams[i] = ck.Bytes()
	}
	if !bytes.Equal(streams[0], streams[1]) {
		t.Fatal("two identical deployments checkpoint to different bytes")
	}
}
