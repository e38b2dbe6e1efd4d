package manager

import "encoding/json"

// Probes and helpers that only this package's tests use.

// Encode serialises the spec as JSON, the form it takes inside assign
// frames.
func (s ClusterSpec) Encode() ([]byte, error) { return json.Marshal(s) }
