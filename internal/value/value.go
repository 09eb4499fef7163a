// Package value defines the dynamically typed attribute values stored by
// Moara agents and manipulated by aggregation functions and predicates.
//
// A Value is one of: Int (int64), Float (float64), String, or Bool.
// Numeric kinds compare with each other; other kinds only compare with
// themselves. Ordered comparisons on Bool and cross-kind comparisons are
// reported as errors by Compare and evaluate to false in predicates,
// matching the "absent attribute never satisfies" semantics of the
// paper's query model.
package value

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind enumerates the value types.
type Kind uint8

// The supported value kinds.
const (
	KindInvalid Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	default:
		return "invalid"
	}
}

// Value is a dynamically typed attribute value. The zero Value is
// invalid and satisfies no predicate.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
	b    bool
}

// Int builds an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float builds a floating-point value.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// Str builds a string value.
func Str(v string) Value { return Value{kind: KindString, s: v} }

// Bool builds a boolean value.
func Bool(v bool) Value { return Value{kind: KindBool, b: v} }

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsValid reports whether the value holds any data.
func (v Value) IsValid() bool { return v.kind != KindInvalid }

// AsInt returns the integer payload; ok is false for non-integer kinds.
func (v Value) AsInt() (i int64, ok bool) { return v.i, v.kind == KindInt }

// AsFloat returns the value as a float64. Integer values convert; ok is
// false for strings, bools, and invalid values.
func (v Value) AsFloat() (f float64, ok bool) {
	switch v.kind {
	case KindFloat:
		return v.f, true
	case KindInt:
		return float64(v.i), true
	default:
		return 0, false
	}
}

// AsString returns the string payload; ok is false for other kinds.
func (v Value) AsString() (s string, ok bool) { return v.s, v.kind == KindString }

// AsBool returns the boolean payload; ok is false for other kinds.
func (v Value) AsBool() (b bool, ok bool) { return v.b, v.kind == KindBool }

// IsNumeric reports whether the value is an Int or Float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// String renders the value as it appears in the query language.
func (v Value) String() string {
	switch v.kind {
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindBool:
		return strconv.FormatBool(v.b)
	}
	var buf [32]byte
	return string(v.Append(buf[:0]))
}

// Append appends the String form of the value to b.
func (v Value) Append(b []byte) []byte {
	switch v.kind {
	case KindInt:
		return strconv.AppendInt(b, v.i, 10)
	case KindFloat:
		return strconv.AppendFloat(b, v.f, 'g', -1, 64)
	case KindString:
		return strconv.AppendQuote(b, v.s)
	case KindBool:
		return strconv.AppendBool(b, v.b)
	}
	return append(b, "<invalid>"...)
}

// Key renders the value as a canonical group-by key: like String, but
// with string payloads unquoted, so results read `slice=cs101` rather
// than `slice="cs101"`. Distinct values of different kinds may share a
// key (Str("1") and Int(1)), which groups them together — the desired
// behavior for loosely typed monitoring attributes.
func (v Value) Key() string {
	if v.kind == KindString {
		return v.s
	}
	return v.String()
}

// Parse interprets a query-language literal: true/false, an integer, a
// float, or a (possibly quoted) string. Unquoted non-numeric tokens
// parse as strings so `os = linux` works without quoting.
func Parse(tok string) (Value, error) {
	if tok == "" {
		return Value{}, fmt.Errorf("value: empty literal")
	}
	switch strings.ToLower(tok) {
	case "true":
		return Bool(true), nil
	case "false":
		return Bool(false), nil
	}
	if i, err := strconv.ParseInt(tok, 10, 64); err == nil {
		return Int(i), nil
	}
	if f, err := strconv.ParseFloat(tok, 64); err == nil {
		return Float(f), nil
	}
	if len(tok) >= 2 && (tok[0] == '"' || tok[0] == '\'') {
		unq, err := strconv.Unquote(`"` + strings.Trim(tok, string(tok[0])) + `"`)
		if err != nil {
			return Value{}, fmt.Errorf("value: bad quoted literal %s: %w", tok, err)
		}
		return Str(unq), nil
	}
	return Str(tok), nil
}

// Compare orders a against b: -1, 0, or +1. It returns an error when the
// kinds are not comparable (e.g. string vs int, or any ordered use of
// invalid values). Bools compare equal/unequal but also order false <
// true so MIN/MAX over bools is well-defined.
func Compare(a, b Value) (int, error) {
	if a.kind == KindInvalid || b.kind == KindInvalid {
		return 0, fmt.Errorf("value: cannot compare invalid value")
	}
	if a.IsNumeric() && b.IsNumeric() {
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		// Compare exactly when both are ints to avoid float rounding.
		if a.kind == KindInt && b.kind == KindInt {
			switch {
			case a.i < b.i:
				return -1, nil
			case a.i > b.i:
				return 1, nil
			default:
				return 0, nil
			}
		}
		switch {
		case af < bf:
			return -1, nil
		case af > bf:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if a.kind != b.kind {
		return 0, fmt.Errorf("value: cannot compare %s with %s", a.kind, b.kind)
	}
	switch a.kind {
	case KindString:
		return strings.Compare(a.s, b.s), nil
	case KindBool:
		switch {
		case a.b == b.b:
			return 0, nil
		case !a.b:
			return -1, nil
		default:
			return 1, nil
		}
	default:
		return 0, fmt.Errorf("value: cannot compare kind %s", a.kind)
	}
}

// Equal reports a == b under Compare semantics; incomparable values are
// unequal.
func Equal(a, b Value) bool {
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// Add returns a+b for numeric values; the result is Float unless both
// operands are Int.
func Add(a, b Value) (Value, error) {
	if !a.IsNumeric() || !b.IsNumeric() {
		return Value{}, fmt.Errorf("value: cannot add %s and %s", a.kind, b.kind)
	}
	if a.kind == KindInt && b.kind == KindInt {
		return Int(a.i + b.i), nil
	}
	af, _ := a.AsFloat()
	bf, _ := b.AsFloat()
	return Float(af + bf), nil
}
