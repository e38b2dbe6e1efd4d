package transport

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"time"
)

// Token-plane connection bootstrap for multi-process runs. A shard
// process owns one or more partition units ("subtrees") and dials one
// TCP connection per unit back to the coordinator; the 12-byte preamble
// written first tells the coordinator's accept loop which unit — and
// which assignment epoch — the connection belongs to, so conns from a
// previous (pre-recovery) epoch can be recognised and dropped.
const tokenPreambleMagic uint32 = 0x4653_5450 // "FSTP"

// DialToken dials the coordinator's token listener, retrying with
// jittered backoff until timeout, and writes the identifying preamble.
// The retry loop exists because a freshly assigned shard races the
// coordinator bringing its listener back up after a recovery.
func DialToken(addr string, subtree, epoch uint32, timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	var lastErr error
	for attempt := 1; ; attempt++ {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("transport: dial token %s (subtree %d): timed out after %v: %w", addr, subtree, timeout, lastErr)
		}
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			lastErr = err
			time.Sleep(jitterBackoff(addr, attempt, 20*time.Millisecond))
			continue
		}
		var pre [12]byte
		binary.BigEndian.PutUint32(pre[0:4], tokenPreambleMagic)
		binary.BigEndian.PutUint32(pre[4:8], subtree)
		binary.BigEndian.PutUint32(pre[8:12], epoch)
		c.SetWriteDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Write(pre[:]); err != nil {
			c.Close()
			lastErr = err
			continue
		}
		c.SetWriteDeadline(time.Time{})
		return c, nil
	}
}

// ReadTokenPreamble validates an accepted connection's preamble and
// returns which partition unit and epoch it announces.
func ReadTokenPreamble(c net.Conn, timeout time.Duration) (subtree, epoch uint32, err error) {
	var pre [12]byte
	c.SetReadDeadline(time.Now().Add(timeout))
	defer c.SetReadDeadline(time.Time{})
	if _, err := io.ReadFull(c, pre[:]); err != nil {
		return 0, 0, fmt.Errorf("transport: token preamble: %w", err)
	}
	if m := binary.BigEndian.Uint32(pre[0:4]); m != tokenPreambleMagic {
		return 0, 0, fmt.Errorf("transport: token preamble: bad magic %#x", m)
	}
	return binary.BigEndian.Uint32(pre[4:8]), binary.BigEndian.Uint32(pre[8:12]), nil
}

// jitterBackoff spreads a nominal backoff delay across [0.8, 1.2) of its
// value, deterministically seeded from a name and the attempt number: a
// given dialer always produces the same delay sequence (tests and reruns
// are reproducible), while different dialers — a respawned shard fleet —
// spread out instead of retrying in lockstep.
func jitterBackoff(name string, attempt int, backoff time.Duration) time.Duration {
	h := fnv.New64a()
	h.Write([]byte(name))
	var a [8]byte
	binary.BigEndian.PutUint64(a[:], uint64(attempt))
	h.Write(a[:])
	// Top 53 bits → uniform float in [0, 1).
	u := float64(h.Sum64()>>11) / float64(uint64(1)<<53)
	return time.Duration(float64(backoff) * (0.8 + 0.4*u))
}
