// Package lib holds one case of each kind the dead-API gate must flag
// (Unused, hidden.Exported, Knobs.TestOnly, Knobs.Never) and each kind it
// must not.
package lib

import (
	"fmt"
	"strings"
)

// Unused is referenced only by lib_test.go: the gate flags it.
func Unused() {}

// OnlyMain is referenced only by a main package: it counts as used.
func OnlyMain() fmt.Stringer { return hidden{} }

type hidden struct{}

// String satisfies fmt.Stringer, so it counts as used.
func (hidden) String() string { return "hidden" }

// Exported is a method of an unexported type that nothing calls: the gate
// flags it.
func (hidden) Exported() {}

// Box is generic; Get is reached only through Box[int], and V is written
// only by a positional Box[int] literal.
type Box[T any] struct{ V T }

// Get returns the boxed value.
func (b Box[T]) Get() T { return b.V }

// Knobs has one field per way of writing one, one field only lib_test.go
// writes and one field nothing writes (only read): the gate flags the last
// two.
type Knobs struct {
	Keyed    int
	Assigned int
	Indexed  [2]int
	Paren    int
	Inc      int
	Addr     int
	Buf      strings.Builder
	TestOnly int
	Never    int
}

// Tune writes Knobs every way but a keyed literal, which main.go uses.
func Tune(k *Knobs) int {
	k.Assigned = 1
	k.Indexed[0] = 2
	(k.Paren) = 3
	k.Inc++
	p := &k.Addr
	k.Buf.WriteString("x")
	return *p + k.Never + k.TestOnly + k.Buf.Len()
}
