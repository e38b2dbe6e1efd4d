// The shard worker runtime: one process hosting one or more partition
// units of a distributed run. A shard is deliberately stateless between
// assignments — every Assign tears down whatever was running and
// rebuilds from the spec plus the units' on-disk checkpoint stores — so
// the coordinator's recovery path and the initial start are the same
// code: assign, restore, dial, run. A shard that survives a cluster-wide
// failure is simply re-assigned into the next epoch.
package manager

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/snapshot"
	"repro/internal/transport"
)

// shardHeartbeat is how often a shard emits a Progress frame. The
// coordinator's liveness lease is a small multiple of this.
const shardHeartbeat = 25 * time.Millisecond

// shardBridgeTimeout bounds each token batch read on the shard side. It
// is far above every coordinator watchdog deadline: failures are meant
// to be detected by supervision (which actively closes the token conns,
// failing blocked reads immediately), not by healthy bridges timing out.
const shardBridgeTimeout = 30 * time.Second

// ShardConfig configures RunShard.
type ShardConfig struct {
	// ControlAddr is the coordinator's control listener.
	ControlAddr string
	// Name identifies this process in Hello and diagnostics.
	Name string
	// Log, when non-nil, receives shard lifecycle lines.
	Log func(format string, args ...any)
}

// shard is the in-process state of one worker.
type shard struct {
	cfg     ShardConfig
	conn    net.Conn
	writeMu sync.Mutex // Progress heartbeats interleave with command replies

	part   *Partition
	stores map[int]*snapshot.Store
	assign AssignMsg

	// cycle mirrors the partition's target cycle for the heartbeat
	// goroutine; the main loop updates it after every chunk.
	cycle atomic.Uint64
	// stalled marks the one-shot chaos stall as consumed.
	stalled bool
}

func (s *shard) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log("[%s] "+format, append([]any{s.cfg.Name}, args...)...)
	}
}

func (s *shard) send(typ byte, msg any) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	return WriteControl(s.conn, typ, msg)
}

// RunShard connects to the coordinator and serves commands until a
// shutdown frame, a control-connection failure, or a fatal local error.
// This is the entire body of a `firesim shard` process.
func RunShard(cfg ShardConfig) error {
	conn, err := net.DialTimeout("tcp", cfg.ControlAddr, 10*time.Second)
	if err != nil {
		return fmt.Errorf("manager: shard %s: dial control %s: %w", cfg.Name, cfg.ControlAddr, err)
	}
	defer conn.Close()
	s := &shard{cfg: cfg, conn: conn, stores: make(map[int]*snapshot.Store)}
	defer s.teardown()

	if err := s.send(msgHello, HelloMsg{Name: cfg.Name, PID: os.Getpid(), Proto: int(controlVersion)}); err != nil {
		return err
	}

	// Heartbeat: any frame renews the coordinator's liveness lease; the
	// carried cycle feeds the progress watchdog. A SIGSTOPped process
	// stops heartbeating (lease expiry); a stalled one keeps heartbeating
	// a frozen cycle (progress watchdog).
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(shardHeartbeat)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if s.send(msgProgress, ProgressMsg{Cycle: s.cycle.Load()}) != nil {
					return
				}
			}
		}
	}()

	for {
		typ, payload, err := ReadControl(conn)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return nil // coordinator went away; nothing left to serve
			}
			return fmt.Errorf("manager: shard %s: control read: %w", cfg.Name, err)
		}
		switch typ {
		case msgAssign:
			var m AssignMsg
			if err := decodeControl(typ, payload, &m); err != nil {
				return err
			}
			if err := s.handleAssign(m); err != nil {
				s.logf("assign epoch %d failed: %v", m.Epoch, err)
				if serr := s.send(msgError, ErrorMsg{Epoch: s.assign.Epoch, Msg: err.Error(), Cycle: s.cycle.Load()}); serr != nil {
					return serr
				}
				continue
			}
			if err := s.send(msgReady, ReadyMsg{Epoch: m.Epoch, Cycle: s.cycle.Load()}); err != nil {
				return err
			}
		case msgRunTo:
			var m RunToMsg
			if err := decodeControl(typ, payload, &m); err != nil {
				return err
			}
			if err := s.handleRunTo(m); err != nil {
				s.logf("run-to %d failed: %v", m.Target, err)
				if serr := s.send(msgError, ErrorMsg{Epoch: s.assign.Epoch, Msg: err.Error(), Cycle: s.cycle.Load()}); serr != nil {
					return serr
				}
				continue
			}
			done := DoneMsg{Epoch: s.assign.Epoch, Cycle: s.cycle.Load()}
			if m.Final {
				hashes, err := s.part.UnitHashes()
				if err != nil {
					if serr := s.send(msgError, ErrorMsg{Epoch: s.assign.Epoch, Msg: err.Error(), Cycle: s.cycle.Load()}); serr != nil {
						return serr
					}
					continue
				}
				done.Hashes = hashes
			}
			if err := s.send(msgDone, done); err != nil {
				return err
			}
		case msgShutdown:
			s.logf("shutdown at cycle %d", s.cycle.Load())
			return nil
		default:
			// Unknown-but-valid-framed commands are reported, not fatal:
			// a newer coordinator may speak messages this shard predates.
			if err := s.send(msgError, ErrorMsg{Epoch: s.assign.Epoch, Msg: fmt.Sprintf("unhandled command type %d", typ), Cycle: s.cycle.Load()}); err != nil {
				return err
			}
		}
	}
}

// teardown closes the current partition's token plane.
func (s *shard) teardown() {
	if s.part != nil {
		s.part.CloseBridges()
		s.part = nil
	}
	s.stores = make(map[int]*snapshot.Store)
}

// handleAssign rebuilds this shard from scratch: close the old token
// plane, build the assigned units from the spec, restore them from their
// stores (or persist a cycle-0 baseline), then dial one epoch-tagged
// token connection per unit.
func (s *shard) handleAssign(m AssignMsg) error {
	s.teardown()
	s.assign = m
	s.stalled = false

	units := make([]int, len(m.Units))
	for i, u := range m.Units {
		units[i] = u.Unit
	}
	part, err := BuildPartition(m.Spec, units, shardBridgeTimeout)
	if err != nil {
		return err
	}
	stores := make(map[int]*snapshot.Store, len(m.Units))
	for _, u := range m.Units {
		st, err := snapshot.NewStore(u.StoreDir, 0)
		if err != nil {
			return err
		}
		stores[u.Unit] = st
	}

	if m.Restore {
		for _, u := range m.Units {
			data, err := stores[u.Unit].Load(m.RestoreCycle)
			if err != nil {
				return fmt.Errorf("unit %s: load checkpoint at %d: %w", UnitName(u.Unit), m.RestoreCycle, err)
			}
			got, err := part.RestoreUnit(data, u.Unit)
			if err != nil {
				return fmt.Errorf("unit %s: restore: %w", UnitName(u.Unit), err)
			}
			if got != m.RestoreCycle {
				return fmt.Errorf("unit %s: checkpoint cycle %d, assignment wants %d", UnitName(u.Unit), got, m.RestoreCycle)
			}
		}
		if err := part.Runner.SetCycle(clock.Cycles(m.RestoreCycle)); err != nil {
			return err
		}
	}
	s.part = part
	s.stores = stores
	s.cycle.Store(uint64(part.Runner.Cycle()))
	if !m.Restore {
		// Persist the cycle-0 baseline so a failure before the first
		// coordinated checkpoint can still rewind the whole cluster.
		if err := s.persist(); err != nil {
			return err
		}
	}

	for _, u := range m.Units {
		conn, err := transport.DialToken(m.TokenAddr, uint32(u.Unit), m.Epoch, 15*time.Second)
		if err != nil {
			return err
		}
		if err := part.AttachBridge(u.Unit, conn, s.cycle.Load()); err != nil {
			conn.Close()
			return err
		}
	}
	s.logf("assigned epoch %d: %d unit(s) at cycle %d (restore=%v)", m.Epoch, len(m.Units), s.cycle.Load(), m.Restore)
	return nil
}

// handleRunTo advances the partition to the target cycle in step-sized
// chunks (so the heartbeat cycle is fresh and the chaos stall can
// trigger between token windows), then persists a checkpoint generation
// at the target.
func (s *shard) handleRunTo(m RunToMsg) error {
	if s.part == nil {
		return fmt.Errorf("run-to before assign")
	}
	step := uint64(s.part.Step)
	if m.Target%step != 0 {
		return fmt.Errorf("run-to target %d not a multiple of step %d", m.Target, step)
	}
	for s.cycle.Load() < m.Target {
		if s.assign.StallAt != 0 && !s.stalled && s.cycle.Load() >= s.assign.StallAt {
			// Chaos: freeze target time while wall time (and heartbeats)
			// march on — exactly the failure mode the progress watchdog
			// exists to catch.
			s.stalled = true
			s.logf("chaos stall at cycle %d for %dms", s.cycle.Load(), s.assign.StallMs)
			time.Sleep(time.Duration(s.assign.StallMs) * time.Millisecond)
		}
		if err := s.part.RunSlice(s.part.Step); err != nil {
			return err
		}
		s.cycle.Store(uint64(s.part.Runner.Cycle()))
	}
	return s.persist()
}

// persist writes one checkpoint generation per hosted unit at the
// current cycle, through the crash-safe store (temp + fsync + rename):
// a shard killed mid-persist leaves only complete, CRC-valid
// generations behind.
func (s *shard) persist() error {
	if s.part == nil {
		return fmt.Errorf("persist before assign")
	}
	cycle := uint64(s.part.Runner.Cycle())
	for _, unit := range s.part.storeUnits() {
		st, ok := s.stores[unit]
		if !ok {
			return fmt.Errorf("unit %s: no store", UnitName(unit))
		}
		u := unit
		if err := st.Save(cycle, func(w io.Writer) error { return s.part.SaveUnit(w, u) }); err != nil {
			return fmt.Errorf("unit %s: persist at %d: %w", UnitName(unit), cycle, err)
		}
	}
	return nil
}
