// Package wirefmt holds the primitive encoders/decoders shared by the
// columnar wire codec: varints, fixed-width floats, length-prefixed
// strings, and nil-preserving collection lengths. Every reader is
// bounds-checked and returns the unconsumed remainder, so decoders
// compose by threading the byte slice through — and arbitrary (fuzzed,
// corrupted) input fails with an error instead of panicking or
// over-allocating.
//
// Wire conventions:
//   - unsigned integers: uvarint (encoding/binary)
//   - signed integers (counts, durations): zig-zag varint
//   - float64: IEEE 754 bits, little-endian, 8 bytes
//   - string/bytes: uvarint length + raw bytes
//   - collections: uvarint "length+1" — 0 encodes a nil map/slice,
//     n+1 encodes length n, so decoded values DeepEqual the originals
//     (gob cannot make this distinction; the columnar codec can)
package wirefmt

import (
	"encoding/binary"
	"errors"
	"math"
)

// ErrTruncated reports input that ended before the value it promised.
var ErrTruncated = errors.New("wirefmt: truncated input")

// ErrCorrupt reports input that cannot be a valid encoding (bad varint,
// an element count larger than the bytes that would carry it, ...).
var ErrCorrupt = errors.New("wirefmt: corrupt input")

// AppendUvarint appends v as a uvarint.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends v as a zig-zag varint.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendFloat appends f as 8 little-endian IEEE 754 bytes.
func AppendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// AppendString appends s with a uvarint length prefix.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBool appends v as one byte (0 or 1).
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendLen appends a collection length under the nil-preserving
// "length+1" convention: pass isNil for a nil map/slice.
func AppendLen(b []byte, n int, isNil bool) []byte {
	if isNil {
		return append(b, 0)
	}
	return binary.AppendUvarint(b, uint64(n)+1)
}

// Byte consumes one byte.
func Byte(b []byte) (byte, []byte, error) {
	if len(b) < 1 {
		return 0, nil, ErrTruncated
	}
	return b[0], b[1:], nil
}

// Bool consumes one byte as a boolean; bytes other than 0/1 are corrupt.
func Bool(b []byte) (bool, []byte, error) {
	c, rest, err := Byte(b)
	if err != nil || c > 1 {
		return false, nil, errOf(err)
	}
	return c == 1, rest, nil
}

// Uvarint consumes a uvarint.
func Uvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errOf(nil)
	}
	return v, b[n:], nil
}

// Varint consumes a zig-zag varint.
func Varint(b []byte) (int64, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, errOf(nil)
	}
	return v, b[n:], nil
}

// Float consumes 8 little-endian bytes as a float64.
func Float(b []byte) (float64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, ErrTruncated
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), b[8:], nil
}

// Bytes consumes exactly n raw bytes (no copy — callers copy if they
// retain past the buffer's lifetime).
func Bytes(b []byte, n int) ([]byte, []byte, error) {
	if n < 0 || len(b) < n {
		return nil, nil, ErrTruncated
	}
	return b[:n], b[n:], nil
}

// String consumes a length-prefixed string (copying the bytes).
func String(b []byte) (string, []byte, error) { return ReuseString(b, "") }

// ReuseString is String, but returns old instead of a copy when the bytes
// spell it, so a decoder refilling a pooled key column allocates only for
// the keys that changed.
func ReuseString(b []byte, old string) (string, []byte, error) {
	n, rest, err := Uvarint(b)
	if err != nil {
		return "", nil, err
	}
	if n > uint64(len(rest)) {
		return "", nil, ErrTruncated
	}
	if raw := rest[:n]; string(raw) != old {
		old = string(raw)
	}
	return old, rest[n:], nil
}

// Count consumes a plain uvarint element count and rejects counts that
// could not fit in the remaining input at minElemBytes per element —
// the guard that keeps hostile counts from driving huge allocations.
func Count(b []byte, minElemBytes int) (int, []byte, error) {
	v, rest, err := Uvarint(b)
	if err != nil {
		return 0, nil, err
	}
	if minElemBytes < 1 {
		minElemBytes = 1
	}
	if v > uint64(len(rest)/minElemBytes) {
		return 0, nil, ErrCorrupt
	}
	return int(v), rest, nil
}

// Len consumes a nil-preserving collection length (see AppendLen), with
// the same allocation guard as Count.
func Len(b []byte, minElemBytes int) (n int, isNil bool, rest []byte, err error) {
	v, rest, err := Uvarint(b)
	if err != nil {
		return 0, false, nil, err
	}
	if v == 0 {
		return 0, true, rest, nil
	}
	v--
	if minElemBytes < 1 {
		minElemBytes = 1
	}
	if v > uint64(len(rest)/minElemBytes) {
		return 0, false, nil, ErrCorrupt
	}
	return int(v), false, rest, nil
}

// errOf maps a nil error (from inline length checks) to ErrCorrupt,
// passing real errors through.
func errOf(err error) error {
	if err != nil {
		return err
	}
	return ErrCorrupt
}
