// Package wirefmt is the columnar wire codec's one primitive: a Codec
// that runs a layout in either direction. A layout is written once, as
// a function that calls one Codec method per field with a pointer to
// that field; encoding appends each field to B, decoding reads each
// field from B into the pointer it was given. Decode-only checks (key
// order, bounds) sit in the layout behind Codec.Dec.
//
// Decoding is bounds-checked throughout: arbitrary (fuzzed, corrupted)
// input fails with an error instead of panicking or over-allocating.
// The first error sticks: every later call leaves its destination
// untouched, so a layout checks Err once at the end.
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
	"fmt"
	"math"
)

// ErrTruncated reports input that ended before the value it promised.
var ErrTruncated = errors.New("wirefmt: truncated input")

// ErrCorrupt reports input that cannot be a valid encoding (bad varint,
// an element count larger than the bytes that would carry it, ...).
var ErrCorrupt = errors.New("wirefmt: corrupt input")

// Codec carries fields to or from B. Encoding (Dec false) appends to B;
// decoding (Dec true) consumes B from the front, so after a layout B
// holds the unread remainder.
type Codec struct {
	B   []byte
	Dec bool
	err error
}

// Err reports the first error a layout met, or nil.
func (c *Codec) Err() error { return c.err }

// Fail records err unless an earlier error is already recorded.
func (c *Codec) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Corrupt records a structural error wrapping ErrCorrupt, formatted
// from format and args, unless an earlier error is already recorded.
func (c *Codec) Corrupt(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format+": %w", append(args, ErrCorrupt)...)
	}
}

// take consumes n bytes, or records ErrTruncated and reports false.
func (c *Codec) take(n int) ([]byte, bool) {
	if c.err != nil {
		return nil, false
	}
	if n < 0 || len(c.B) < n {
		c.err = ErrTruncated
		return nil, false
	}
	raw := c.B[:n:n]
	c.B = c.B[n:]
	return raw, true
}

// Byte carries one byte.
func (c *Codec) Byte(p *byte) {
	if !c.Dec {
		c.B = append(c.B, *p)
	} else if raw, ok := c.take(1); ok {
		*p = raw[0]
	}
}

// Bool carries *p as one byte, 0 or 1; decoding rejects other bytes.
func (c *Codec) Bool(p *bool) {
	if !c.Dec {
		b := byte(0)
		if *p {
			b = 1
		}
		c.B = append(c.B, b)
		return
	}
	switch raw, ok := c.take(1); {
	case !ok:
	case raw[0] > 1:
		c.Corrupt("wirefmt: bool byte %d", raw[0])
	default:
		*p = raw[0] == 1
	}
}

// Uvarint carries *p as a uvarint.
func (c *Codec) Uvarint(p *uint64) {
	if !c.Dec {
		c.B = binary.AppendUvarint(c.B, *p)
	} else if v, ok := c.uvarint(); ok {
		*p = v
	}
}

// uvarint consumes a uvarint, or records the error and reports false.
func (c *Codec) uvarint() (uint64, bool) {
	if c.err != nil {
		return 0, false
	}
	v, n := binary.Uvarint(c.B)
	if n <= 0 {
		c.err = ErrTruncated
		if n < 0 {
			c.err = ErrCorrupt
		}
		return 0, false
	}
	c.B = c.B[n:]
	return v, true
}

// Varint carries *p as a zig-zag varint.
func (c *Codec) Varint(p *int64) {
	if !c.Dec {
		c.B = binary.AppendVarint(c.B, *p)
	} else if v, ok := c.uvarint(); ok {
		*p = int64(v>>1) ^ -int64(v&1)
	}
}

// Int carries *p as a zig-zag varint.
func (c *Codec) Int(p *int) {
	v := int64(*p)
	if c.Varint(&v); c.Dec && c.err == nil {
		*p = int(v)
	}
}

// Float carries *p as 8 little-endian IEEE 754 bytes.
func (c *Codec) Float(p *float64) {
	if !c.Dec {
		c.B = binary.LittleEndian.AppendUint64(c.B, math.Float64bits(*p))
	} else if raw, ok := c.take(8); ok {
		*p = math.Float64frombits(binary.LittleEndian.Uint64(raw))
	}
}

// String carries *p with a uvarint length prefix. Decoding keeps *p
// when the bytes spell it, so a decoder refilling a pooled key column
// allocates only for the keys that changed.
func (c *Codec) String(p *string) {
	if !c.Dec {
		c.B = binary.AppendUvarint(c.B, uint64(len(*p)))
		c.B = append(c.B, *p...)
	} else if raw, ok := c.prefixed(); ok && string(raw) != *p {
		*p = string(raw)
	}
}

// Bytes carries *p with a uvarint length prefix. Decoding sets *p to a
// view of B, not a copy: a caller that keeps it past B's lifetime
// copies it.
func (c *Codec) Bytes(p *[]byte) {
	if !c.Dec {
		c.B = binary.AppendUvarint(c.B, uint64(len(*p)))
		c.B = append(c.B, *p...)
	} else if raw, ok := c.prefixed(); ok {
		*p = raw
	}
}

// prefixed consumes a uvarint length and that many bytes.
func (c *Codec) prefixed() ([]byte, bool) {
	n, ok := c.uvarint()
	if !ok {
		return nil, false
	}
	if n > uint64(len(c.B)) {
		c.err = ErrTruncated
		return nil, false
	}
	return c.take(int(n))
}

// Fixed carries len(p) raw bytes: encoding appends p, decoding copies
// the next len(p) bytes into it.
func (c *Codec) Fixed(p []byte) {
	if !c.Dec {
		c.B = append(c.B, p...)
	} else if raw, ok := c.take(len(p)); ok {
		copy(p, raw)
	}
}

// Len carries a collection length under the nil-preserving "length+1"
// convention. Encoding writes n, or the nil mark when isNil, and
// returns its arguments. Decoding returns the length read and whether
// it marks nil; it rejects a length that could not fit in the remaining
// input at minElemBytes per element — the guard that keeps hostile
// counts from driving huge allocations. A failed decode reports nil.
func (c *Codec) Len(n int, isNil bool, minElemBytes int) (int, bool) {
	if !c.Dec {
		v := uint64(n) + 1
		if isNil {
			v = 0
		}
		c.B = binary.AppendUvarint(c.B, v)
		return n, isNil
	}
	v, ok := c.uvarint()
	if !ok || v == 0 {
		return 0, true
	}
	if v-1 > uint64(len(c.B)/max(minElemBytes, 1)) {
		c.err = ErrCorrupt
		return 0, true
	}
	return int(v - 1), false
}
