// The shard control protocol ("FSCP") is the small versioned framing the
// coordinator and its shard worker processes speak over the control TCP
// connection — separate from the token plane, because control traffic
// (assignments, run commands, heartbeats, failure reports) must keep
// flowing when the token plane is being torn down and rebuilt around a
// failure.
//
// Frame layout (all integers big-endian):
//
//	magic   u32  0x46534350 "FSCP"
//	version u16  1
//	type    u8   message type (msg* constants)
//	flags   u8   0 (reserved)
//	length  u32  payload byte count, <= maxControlPayload
//	payload [length] bytes (JSON-encoded message struct)
//	crc     u32  CRC-32 (IEEE) of payload
//
// Decoding is defensive end to end: bad magic, unknown versions,
// oversized lengths, truncated payloads and CRC mismatches are all
// structured errors, never panics or unbounded allocations —
// FuzzControlRead holds that line.
package manager

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	controlMagic   uint32 = 0x4653_4350 // "FSCP"
	controlVersion uint16 = 1
	// maxControlPayload bounds a frame's payload; the largest legitimate
	// message is an assign carrying a full cluster spec, far below 1 MiB.
	maxControlPayload = 1 << 20
)

// Control message types.
const (
	msgHello    byte = iota + 1 // shard → coordinator, once per connection
	msgAssign                   // coordinator → shard: (re)build these units
	msgReady                    // shard → coordinator: assignment applied
	msgRunTo                    // coordinator → shard: advance to target cycle
	msgProgress                 // shard → coordinator: heartbeat with cycle
	msgDone                     // shard → coordinator: run-to complete
	msgError                    // shard → coordinator: slice failed (structured)
	msgShutdown                 // coordinator → shard: exit cleanly
	msgMax                      // first invalid type
)

// HelloMsg identifies a shard process on its control connection.
type HelloMsg struct {
	Name  string `json:"name"`
	PID   int    `json:"pid"`
	Proto int    `json:"proto"` // control protocol version the shard speaks
}

// UnitAssign names one partition unit a shard hosts and where that
// unit's checkpoint generations live. Store directories belong to the
// UNIT, not the process: when recovery re-packs a unit onto a different
// process, the new owner finds the unit's generations in the same place.
type UnitAssign struct {
	Unit     int    `json:"unit"` // root downlink index
	StoreDir string `json:"storeDir"`
}

// AssignMsg tells a shard which slice of the cluster to host. The shard
// tears down whatever it was running, rebuilds the named units from the
// spec, restores them to RestoreCycle when Restore is set, dials one
// token connection per unit (tagged with Epoch), and replies Ready.
type AssignMsg struct {
	Epoch        uint32       `json:"epoch"`
	Spec         ClusterSpec  `json:"spec"`
	Units        []UnitAssign `json:"units"`
	TokenAddr    string       `json:"tokenAddr"`
	Restore      bool         `json:"restore,omitempty"`
	RestoreCycle uint64       `json:"restoreCycle,omitempty"`
	// StallAt/StallMs are the chaos hook for the stall watchdog test: at
	// target cycle StallAt the shard stops advancing for StallMs of wall
	// time while its heartbeats keep flowing — alive but stuck.
	StallAt uint64 `json:"stallAt,omitempty"`
	StallMs int    `json:"stallMs,omitempty"`
}

// ReadyMsg acknowledges an assign: the shard is rebuilt, restored and
// its token plane dialed, standing at Cycle.
type ReadyMsg struct {
	Epoch uint32 `json:"epoch"`
	Cycle uint64 `json:"cycle"`
}

// RunToMsg commands a shard to advance to the target cycle and persist a
// checkpoint generation there. Final marks the last slice of the run:
// the Done reply must carry component hashes.
type RunToMsg struct {
	Target uint64 `json:"target"`
	Final  bool   `json:"final,omitempty"`
}

// ProgressMsg is the shard heartbeat: any frame renews the liveness
// lease; the carried cycle feeds the progress (stall) watchdog.
type ProgressMsg struct {
	Cycle uint64 `json:"cycle"`
}

// DoneMsg completes a run-to: the shard stands at Cycle with a checkpoint
// generation persisted there. Hashes (component name → hash) is present
// on the reply to the final slice.
// Epoch lets the coordinator drop replies that raced a recovery: a Done
// for a superseded epoch is stale, not a protocol violation.
type DoneMsg struct {
	Epoch  uint32            `json:"epoch"`
	Cycle  uint64            `json:"cycle"`
	Hashes map[string]uint64 `json:"hashes,omitempty"`
}

// ErrorMsg reports a failed slice (bridge death, restore failure, a
// contained endpoint panic) without killing the control connection: the
// shard stays adoptable for the next assignment. Epoch disambiguates
// errors from a torn-down epoch still in flight during recovery.
type ErrorMsg struct {
	Epoch uint32 `json:"epoch"`
	Msg   string `json:"msg"`
	Cycle uint64 `json:"cycle"`
}

// WriteControl frames and writes one control message. msg is
// JSON-encoded; nil writes an empty payload.
func WriteControl(w io.Writer, typ byte, msg any) error {
	var payload []byte
	if msg != nil {
		var err error
		payload, err = json.Marshal(msg)
		if err != nil {
			return fmt.Errorf("manager: control encode: %w", err)
		}
	}
	if len(payload) > maxControlPayload {
		return fmt.Errorf("manager: control frame payload %d exceeds %d", len(payload), maxControlPayload)
	}
	buf := make([]byte, 12+len(payload)+4)
	binary.BigEndian.PutUint32(buf[0:4], controlMagic)
	binary.BigEndian.PutUint16(buf[4:6], controlVersion)
	buf[6] = typ
	buf[7] = 0
	binary.BigEndian.PutUint32(buf[8:12], uint32(len(payload)))
	copy(buf[12:], payload)
	binary.BigEndian.PutUint32(buf[12+len(payload):], crc32.ChecksumIEEE(payload))
	_, err := w.Write(buf)
	return err
}

// ReadControl reads and validates one control frame, returning its type
// and raw payload. Every malformation is a structured error; no input
// can panic it or make it allocate more than maxControlPayload.
func ReadControl(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, fmt.Errorf("manager: control frame header: %w", err)
	}
	if m := binary.BigEndian.Uint32(hdr[0:4]); m != controlMagic {
		return 0, nil, fmt.Errorf("manager: control frame: bad magic %#x", m)
	}
	if v := binary.BigEndian.Uint16(hdr[4:6]); v != controlVersion {
		return 0, nil, fmt.Errorf("manager: control frame: unsupported version %d", v)
	}
	typ = hdr[6]
	if typ == 0 || typ >= msgMax {
		return 0, nil, fmt.Errorf("manager: control frame: unknown type %d", typ)
	}
	n := binary.BigEndian.Uint32(hdr[8:12])
	if n > maxControlPayload {
		return 0, nil, fmt.Errorf("manager: control frame: payload length %d exceeds %d", n, maxControlPayload)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("manager: control frame payload: %w", err)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
		return 0, nil, fmt.Errorf("manager: control frame crc: %w", err)
	}
	if want, got := binary.BigEndian.Uint32(crcBuf[:]), crc32.ChecksumIEEE(payload); want != got {
		return 0, nil, fmt.Errorf("manager: control frame: payload crc %08x, frame claims %08x", got, want)
	}
	return typ, payload, nil
}

// decodeControl unmarshals a control payload into out with a structured
// error. JSON decoding never panics on malformed input, which keeps the
// whole read path fuzz-clean.
func decodeControl(typ byte, payload []byte, out any) error {
	if err := json.Unmarshal(payload, out); err != nil {
		return fmt.Errorf("manager: control message type %d: %w", typ, err)
	}
	return nil
}
