package snapshot

import (
	"cmp"
	"fmt"
	"slices"
)

// State runs one component's field list in one direction. Encode wraps a
// Writer: every helper writes the field its pointer names. Decode wraps a
// Reader: every helper overwrites that field in place. A component that
// lists its fields once, in a state(*State) method, gets Save and Restore
// that cannot disagree.
//
// State shares the wrapped stream's sticky error: a failed read, a failed
// Check or a failed sub-component latches there, and every later write is
// a no-op and every later read yields zero. A field list that indexes or
// allocates with a decoded value checks Err (or Check's result) first, as
// Slice, Map and Ptr do.
type State struct {
	w *Writer
	r *Reader
}

// Encode returns a State that writes fields to w.
func Encode(w *Writer) *State { return &State{w: w} }

// Decode returns a State that overwrites fields from r.
func Decode(r *Reader) *State { return &State{r: r} }

// Decoding reports whether s overwrites fields (Restore) rather than
// writing them out (Save). Derived state is rebuilt only when it is true.
func (s *State) Decoding() bool { return s.r != nil }

// Err returns the first error latched by any helper.
func (s *State) Err() error {
	if s.r != nil {
		return s.r.Err()
	}
	return s.w.Err()
}

func (s *State) fail(err error) {
	if s.r != nil {
		s.r.setErr(err)
	} else {
		s.w.setErr(err)
	}
}

func (s *State) section() string {
	if s.r != nil {
		return s.r.name
	}
	return s.w.name
}

// Begin records a component boundary: a name plus a schema version,
// which decoding verifies (see Writer.Begin).
func (s *State) Begin(name string, version uint64) {
	if s.r != nil {
		s.r.Begin(name, version)
	} else {
		s.w.Begin(name, version)
	}
}

// U64 records a uint64 as 8 fixed bytes.
func (s *State) U64(v *uint64) {
	if s.r != nil {
		*v = s.r.U64()
	} else {
		s.w.U64(*v)
	}
}

// F64 records a float64 bit-exactly.
func (s *State) F64(v *float64) {
	if s.r != nil {
		*v = s.r.F64()
	} else {
		s.w.F64(*v)
	}
}

// Bool records a bool as one byte.
func (s *State) Bool(v *bool) {
	if s.r != nil {
		*v = s.r.Bool()
	} else {
		s.w.Bool(*v)
	}
}

// Bytes records a byte slice; decoding refuses more than max bytes and
// stores a fresh copy.
func (s *State) Bytes(v *[]byte, max int) {
	if s.r != nil {
		*v = s.r.Bytes(max)
	} else {
		s.w.Bytes(*v)
	}
}

// String records a string; decoding refuses more than max bytes.
func (s *State) String(v *string, max int) {
	if s.r != nil {
		*v = s.r.String(max)
	} else {
		s.w.String(*v)
	}
}

// Count records an element count. Decoding refuses a count above max, or
// above the bytes left in the section, before the caller allocates for
// it: every element takes at least one byte, so a larger count can only
// come from a corrupt or hostile stream.
func (s *State) Count(n *int, max int) {
	if s.r == nil {
		s.w.Uvarint(uint64(*n))
		return
	}
	v := s.r.Count(max)
	if left := s.r.Remaining(); s.r.err == nil && v > left {
		s.r.setErr(fmt.Errorf("%w: count %d exceeds the %d bytes left in section %q", ErrFormat, v, left, s.r.name))
		return
	}
	*n = v
}

// Shape records geometry the restore target fixes (ports, cores, banks):
// encoding writes n, decoding refuses a stream that carries another n.
func (s *State) Shape(what string, n int) {
	if s.r == nil {
		s.w.Uvarint(uint64(n))
		return
	}
	if got := s.r.Uvarint(); s.r.err == nil && got != uint64(n) {
		s.Check(false, "geometry mismatch: checkpoint has %d %s, target has %d", got, what, n)
	}
}

// Check latches a validation failure unless ok, and reports whether s is
// still free of errors. It runs in both directions: a save refuses state
// that a restore of the same bytes would refuse. The error names the
// section, so messages need not name the component. args are boxed even
// when ok, so checks run per element pass few and small ones.
func (s *State) Check(ok bool, format string, args ...any) bool {
	if !ok && s.Err() == nil {
		s.fail(fmt.Errorf("snapshot: section %q: %s", s.section(), fmt.Sprintf(format, args...)))
	}
	return s.Err() == nil
}

// Sub runs a sub-component's own field list in s's direction.
func (s *State) Sub(c Snapshotter) {
	if s.Err() != nil {
		return
	}
	var err error
	if s.r != nil {
		err = c.Restore(s.r)
	} else {
		err = c.Save(s.w)
	}
	if err != nil {
		s.fail(err)
	}
}

// Fixed records an integer of a named type as 8 fixed bytes. Decoding
// refuses a value the type cannot hold.
func Fixed[T ~uint64 | ~int64 | ~uint32](s *State, v *T) {
	if s.r == nil {
		s.w.U64(uint64(*v))
		return
	}
	u := s.r.U64()
	if uint64(T(u)) != u {
		s.fail(fmt.Errorf("%w: value %#x out of range in section %q", ErrFormat, u, s.r.name))
	}
	*v = T(u)
}

// Uvarint records a non-negative integer as a uvarint. Decoding refuses
// a value the type cannot hold.
func Uvarint[T ~uint64 | ~uint32 | ~uint16 | ~int | ~int32](s *State, v *T) {
	if s.r == nil {
		s.w.Uvarint(uint64(*v))
		return
	}
	u := s.r.Uvarint()
	if t := T(u); uint64(t) != u || t < 0 {
		s.fail(fmt.Errorf("%w: value %d out of range in section %q", ErrFormat, u, s.r.name))
	}
	*v = T(u)
}

// Slice records a slice as its count (at most max) and then elem over
// every element. Decoding replaces *v with a fresh slice of that count.
func Slice[E any](s *State, v *[]E, max int, elem func(*E)) {
	n := len(*v)
	s.Count(&n, max)
	if s.Err() != nil {
		return
	}
	if s.r != nil {
		*v = make([]E, n)
	}
	for i := range *v {
		if elem(&(*v)[i]); s.Err() != nil {
			return
		}
	}
}

// Map records a map as its entry count (at most max) and then entry over
// each entry in ascending key order, so equal maps encode to equal bytes.
// keep, if not nil, leaves out the entries it refuses. Decoding replaces
// *m with a fresh map and refuses keys that are not strictly ascending.
func Map[K cmp.Ordered, V any](s *State, m *map[K]V, max int, keep func(V) bool, entry func(*K, *V)) {
	if s.r == nil {
		keys := make([]K, 0, len(*m))
		for k, v := range *m {
			if keep == nil || keep(v) {
				keys = append(keys, k)
			}
		}
		slices.Sort(keys)
		n := len(keys)
		s.Count(&n, max)
		var k K // one k and v for every entry: each escapes to entry
		var v V
		for _, k = range keys {
			v = (*m)[k]
			entry(&k, &v)
		}
		return
	}
	var n int
	s.Count(&n, max)
	if s.Err() != nil {
		return
	}
	*m = make(map[K]V, n)
	var prev K
	for i := 0; i < n; i++ {
		var k K
		var v V
		if entry(&k, &v); s.Err() != nil {
			return
		}
		if i > 0 && k <= prev {
			s.fail(fmt.Errorf("%w: keys out of order (%v after %v) in section %q", ErrFormat, k, prev, s.r.name))
			return
		}
		(*m)[k] = v
		prev = k
	}
}

// Ptr records an optional *T as a presence flag and, when present, the
// fields visits. Decoding replaces *p with a fresh T, or with nil.
func Ptr[T any](s *State, p **T, fields func(*T)) {
	has := *p != nil
	s.Bool(&has)
	if s.r != nil {
		*p = nil
		if has && s.r.err == nil {
			*p = new(T)
		}
	}
	if *p != nil {
		fields(*p)
	}
}
