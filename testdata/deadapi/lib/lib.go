// Package lib holds one case of each kind the dead-API gate must flag
// (Unused, hidden.Exported) and each kind it must not.
package lib

import "fmt"

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

// Box is generic; Get is reached only through Box[int].
type Box[T any] struct{ v T }

// Get returns the boxed value.
func (b Box[T]) Get() T { return b.v }
