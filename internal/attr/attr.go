// Package attr implements the per-node attribute store populated by the
// Moara agent: a set of (attribute, value) tuples with change
// notification, mirroring §3.1 of the paper.
package attr

import (
	"math"

	"github.com/moara/moara/internal/value"
)

// ChangeFunc observes attribute updates. old is invalid when the
// attribute is newly set.
type ChangeFunc func(name string, old, new value.Value)

// Store holds one node's attributes. It is not safe for concurrent use;
// like the rest of a node's state it is driven from one goroutine.
type Store struct {
	vals      map[string]value.Value
	listeners []ChangeFunc
}

// NewStore creates an empty attribute store.
func NewStore() *Store {
	return &Store{vals: make(map[string]value.Value)}
}

// Subscribe registers fn to observe every subsequent change.
func (s *Store) Subscribe(fn ChangeFunc) {
	s.listeners = append(s.listeners, fn)
}

// Set writes an attribute and notifies listeners when the value changed.
// A NaN and a number differ, though value.Equal calls them equal.
func (s *Store) Set(name string, v value.Value) {
	old := s.vals[name]
	of, _ := old.AsFloat()
	nf, _ := v.AsFloat()
	if old.IsValid() && value.Equal(old, v) && old.Kind() == v.Kind() && math.IsNaN(of) == math.IsNaN(nf) {
		return
	}
	s.vals[name] = v
	s.notify(name, old, v)
}

// SetInt is shorthand for Set with an integer value.
func (s *Store) SetInt(name string, v int64) { s.Set(name, value.Int(v)) }

// SetFloat is shorthand for Set with a float value.
func (s *Store) SetFloat(name string, v float64) { s.Set(name, value.Float(v)) }

// SetBool is shorthand for Set with a boolean value.
func (s *Store) SetBool(name string, v bool) { s.Set(name, value.Bool(v)) }

// SetString is shorthand for Set with a string value.
func (s *Store) SetString(name, v string) { s.Set(name, value.Str(v)) }

// Get returns the attribute's value; an invalid Value when unset.
func (s *Store) Get(name string) value.Value { return s.vals[name] }

func (s *Store) notify(name string, old, new value.Value) {
	for _, fn := range s.listeners {
		fn(name, old, new)
	}
}
