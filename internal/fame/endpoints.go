package fame

import (
	"repro/internal/token"
)

// This file provides small building-block endpoints used by tests and by
// simple experiments: a source that emits a programmed token stream, a sink
// that records everything it receives, and a wire that forwards tokens
// between its two ports.

// Source emits a programmed sequence of tokens on port 0, one per cycle
// starting at a given cycle, and ignores its input.
type Source struct {
	name string
	// Program maps absolute target cycle -> token to emit.
	program map[int64]token.Token
	cycle   int64
}

// NewSource returns a source with an empty program.
func NewSource(name string) *Source {
	return &Source{name: name, program: make(map[int64]token.Token)}
}

// EmitAt schedules tok for transmission at the given absolute target cycle.
func (s *Source) EmitAt(cycle int64, tok token.Token) { s.program[cycle] = tok }

// EmitPacketAt schedules a multi-flit packet starting at the given cycle,
// one flit per cycle, marking Last on the final flit.
func (s *Source) EmitPacketAt(cycle int64, flits []uint64) {
	for i, f := range flits {
		s.program[cycle+int64(i)] = token.Token{Data: f, Valid: true, Last: i == len(flits)-1}
	}
}

// Name implements Endpoint.
func (s *Source) Name() string { return s.name }

// NumPorts implements Endpoint.
func (s *Source) NumPorts() int { return 1 }

// TickBatch implements Endpoint.
func (s *Source) TickBatch(n int, in, out []*token.Batch) {
	for i := 0; i < n; i++ {
		if tok, ok := s.program[s.cycle+int64(i)]; ok {
			out[0].Put(i, tok)
		}
	}
	s.cycle += int64(n)
}

// Arrival is a token observed by a Sink, tagged with its absolute arrival
// cycle.
type Arrival struct {
	Cycle int64
	Tok   token.Token
}

// Sink records every valid token it receives on port 0 and emits nothing.
type Sink struct {
	name     string
	cycle    int64
	Received []Arrival
}

// NewSink returns an empty sink.
func NewSink(name string) *Sink { return &Sink{name: name} }

// Name implements Endpoint.
func (s *Sink) Name() string { return s.name }

// NumPorts implements Endpoint.
func (s *Sink) NumPorts() int { return 1 }

// TickBatch implements Endpoint.
func (s *Sink) TickBatch(n int, in, out []*token.Batch) {
	in[0].Each(func(offset int, tok token.Token) {
		s.Received = append(s.Received, Arrival{Cycle: s.cycle + int64(offset), Tok: tok})
	})
	s.cycle += int64(n)
}

// Wire forwards tokens from port 0 to port 1 and vice versa with zero
// internal delay (all delay lives in the links). It is useful for splicing
// instrumentation into a link.
type Wire struct {
	name string
}

// NewWire returns a two-port pass-through endpoint.
func NewWire(name string) *Wire { return &Wire{name: name} }

// Name implements Endpoint.
func (w *Wire) Name() string { return w.name }

// NumPorts implements Endpoint.
func (w *Wire) NumPorts() int { return 2 }

// TickBatch implements Endpoint.
func (w *Wire) TickBatch(n int, in, out []*token.Batch) {
	in[0].Each(out[1].Put)
	in[1].Each(out[0].Put)
}
