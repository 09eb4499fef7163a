package attr

import (
	"math"
	"testing"

	"github.com/moara/moara/internal/value"
)

func TestSetGet(t *testing.T) {
	s := NewStore()
	if s.Get("cpu").IsValid() {
		t.Fatal("empty store has attribute")
	}
	s.SetFloat("cpu", 42.5)
	if v := s.Get("cpu"); !value.Equal(v, value.Float(42.5)) {
		t.Fatalf("get = %v", v)
	}
}

func TestChangeNotification(t *testing.T) {
	s := NewStore()
	type change struct {
		name     string
		old, new value.Value
	}
	var seen []change
	s.Subscribe(func(name string, old, new value.Value) {
		seen = append(seen, change{name, old, new})
	})
	s.SetInt("jobs", 1)
	s.SetInt("jobs", 1) // no-op: same value
	s.SetInt("jobs", 2)
	if len(seen) != 2 {
		t.Fatalf("changes = %d, want 2 (%v)", len(seen), seen)
	}
	if seen[0].old.IsValid() || !value.Equal(seen[0].new, value.Int(1)) {
		t.Fatalf("first change: %+v", seen[0])
	}
	if !value.Equal(seen[1].old, value.Int(1)) || !value.Equal(seen[1].new, value.Int(2)) {
		t.Fatalf("second change: %+v", seen[1])
	}
}

func TestKindChangeNotifies(t *testing.T) {
	s := NewStore()
	count := 0
	s.Subscribe(func(string, value.Value, value.Value) { count++ })
	s.SetInt("x", 1)
	s.SetFloat("x", 1) // numerically equal but different kind
	if count != 2 {
		t.Fatalf("kind change should notify, count = %d", count)
	}
}

// TestNaNChangeNotifies: value.Equal calls NaN equal to every number, but
// a write between NaN and a number is a change in either direction; a
// NaN rewritten as NaN is not.
func TestNaNChangeNotifies(t *testing.T) {
	s := NewStore()
	count := map[string]int{}
	s.Subscribe(func(name string, _, _ value.Value) { count[name]++ })
	s.SetFloat("x", 5)
	s.SetFloat("x", math.NaN())
	s.SetFloat("x", math.NaN())
	if f, _ := s.Get("x").AsFloat(); !math.IsNaN(f) || count["x"] != 2 {
		t.Errorf("5, NaN, NaN: x = %v after %d notifications, want NaN after 2", s.Get("x"), count["x"])
	}
	s.SetFloat("y", math.NaN())
	s.SetFloat("y", 7)
	if f, _ := s.Get("y").AsFloat(); f != 7 || count["y"] != 2 {
		t.Errorf("NaN, 7: y = %v after %d notifications, want 7 after 2", s.Get("y"), count["y"])
	}
}
