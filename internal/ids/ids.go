// Package ids implements the 128-bit identifier space used by the Moara
// overlay: node and key identifiers, prefix arithmetic over configurable
// digit widths, MD5-based key derivation for group attributes, and ring
// distance metrics.
//
// Identifiers are 128-bit unsigned integers in big-endian byte order.
// Pastry-style routing interprets an ID as a string of digits, each
// DigitBits wide (default 4, i.e. hexadecimal digits).
package ids

import (
	"crypto/md5"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/bits"
)

// Bits is the total number of bits in an identifier.
const Bits = 128

// Bytes is the identifier size in bytes.
const Bytes = Bits / 8

// DigitBits is the width of one routing digit in bits (Pastry's "b"
// parameter). 4 means IDs are routed one hex digit at a time.
const DigitBits = 4

// Digits is the number of routing digits in an identifier.
const Digits = Bits / DigitBits

// Radix is the number of distinct digit values (2^DigitBits).
const Radix = 1 << DigitBits

// ID is a 128-bit identifier in big-endian byte order.
type ID [Bytes]byte

// Zero is the all-zero identifier.
var Zero ID

// FromKey derives the identifier for a string key (e.g. a group
// attribute name) by hashing it with MD5, exactly as the paper's
// prototype does.
func FromKey(key string) ID {
	return ID(md5.Sum([]byte(key)))
}

// FromUint64 builds an identifier whose low 64 bits are v. Useful in
// tests where readable IDs matter.
func FromUint64(v uint64) ID {
	var id ID
	binary.BigEndian.PutUint64(id[8:], v)
	return id
}

// FromHex parses a hexadecimal identifier. Short strings are left-padded
// with zeros, so "f0" parses as 0x00..00f0.
func FromHex(s string) (ID, error) {
	if len(s) > 2*Bytes {
		return Zero, fmt.Errorf("ids: hex string %q longer than %d digits", s, 2*Bytes)
	}
	if len(s)%2 == 1 {
		s = "0" + s
	}
	raw, err := hex.DecodeString(s)
	if err != nil {
		return Zero, fmt.Errorf("ids: parse %q: %w", s, err)
	}
	var id ID
	copy(id[Bytes-len(raw):], raw)
	return id, nil
}

// MustHex is FromHex that panics on malformed input. For tests and
// constants only.
func MustHex(s string) ID {
	id, err := FromHex(s)
	if err != nil {
		panic(err)
	}
	return id
}

// String renders the identifier as 32 hex digits.
func (id ID) String() string {
	return hex.EncodeToString(id[:])
}

// Short renders the first 8 hex digits, for compact logging.
func (id ID) Short() string {
	return hex.EncodeToString(id[:4])
}

// Seed derives a well-mixed 64-bit seed from all 16 identifier bytes
// (FNV-1a): the simulator's per-node streams and the oracle's routing
// slot picks are keyed by it.
func (id ID) Seed() uint64 {
	s := uint64(14695981039346656037)
	for _, b := range id {
		s ^= uint64(b)
		s *= 1099511628211
	}
	return s
}

// IsZero reports whether the identifier is all zeros.
func (id ID) IsZero() bool {
	return id == Zero
}

// Digit returns the i-th routing digit (0 is the most significant).
func (id ID) Digit(i int) int {
	if i < 0 || i >= Digits {
		panic(fmt.Sprintf("ids: digit index %d out of range [0,%d)", i, Digits))
	}
	byteIdx := i * DigitBits / 8
	// With DigitBits=4 there are exactly two digits per byte.
	if i%2 == 0 {
		return int(id[byteIdx] >> 4)
	}
	return int(id[byteIdx] & 0x0f)
}

// WithDigit returns a copy of the identifier with the i-th routing digit
// replaced by d.
func (id ID) WithDigit(i, d int) ID {
	if d < 0 || d >= Radix {
		panic(fmt.Sprintf("ids: digit value %d out of range [0,%d)", d, Radix))
	}
	byteIdx := i * DigitBits / 8
	out := id
	if i%2 == 0 {
		out[byteIdx] = byte(d<<4) | (out[byteIdx] & 0x0f)
	} else {
		out[byteIdx] = (out[byteIdx] & 0xf0) | byte(d)
	}
	return out
}

// CommonPrefixLen returns the number of leading routing digits shared by
// a and b. It is Digits when a == b.
func CommonPrefixLen(a, b ID) int {
	ua, ub := toU128(a), toU128(b)
	if x := ua.hi ^ ub.hi; x != 0 {
		return bits.LeadingZeros64(x) / DigitBits
	}
	if x := ua.lo ^ ub.lo; x != 0 {
		return (64 + bits.LeadingZeros64(x)) / DigitBits
	}
	return Digits
}

// Cmp compares a and b as unsigned big-endian integers, returning -1, 0,
// or 1.
func Cmp(a, b ID) int {
	return toU128(a).cmp(toU128(b))
}

// Less reports a < b in unsigned integer order.
func Less(a, b ID) bool { return toU128(a).cmp(toU128(b)) < 0 }

// ringDistU returns the minimal distance between a and b around the
// 2^128 ring: min(|a-b|, 2^128 - |a-b|).
func ringDistU(ua, ub u128) u128 {
	if ua.cmp(ub) < 0 {
		ua, ub = ub, ua
	}
	d := ua.sub(ub)
	nd := u128{}.sub(d)
	if nd.cmp(d) < 0 {
		return nd
	}
	return d
}

// Gap is a ring distance kept in native-integer form for
// comparison-heavy data structures (leaf-set ordering): comparing two
// Gaps is two word compares, with no byte marshalling.
type Gap struct{ Hi, Lo uint64 }

// GapCWNative is the clockwise distance from a to b on the 2^128 ring,
// (b - a) mod 2^128, without materializing an ID.
func GapCWNative(a, b ID) Gap {
	d := toU128(b).sub(toU128(a))
	return Gap{d.hi, d.lo}
}

// Less orders gaps as 128-bit unsigned integers.
func (a Gap) Less(b Gap) bool {
	if a.Hi != b.Hi {
		return a.Hi < b.Hi
	}
	return a.Lo < b.Lo
}

// Fraction maps the gap to [0,1): its value divided by 2^128, with
// 64-bit precision.
func (a Gap) Fraction() float64 {
	return float64(a.Hi) / (1 << 63) / 2
}

// CloserToKey reports whether a is strictly closer to key than b under
// the ring metric, breaking ties toward the numerically smaller ID so
// that "closest node to a key" is always unique.
func CloserToKey(key, a, b ID) bool {
	uk, ua, ub := toU128(key), toU128(a), toU128(b)
	switch ringDistU(uk, ua).cmp(ringDistU(uk, ub)) {
	case -1:
		return true
	case 1:
		return false
	default:
		return ua.cmp(ub) < 0
	}
}

// u128 is an identifier in native-integer form; the comparison-heavy
// ring arithmetic stays in this domain to avoid byte marshalling.
type u128 struct{ hi, lo uint64 }

func toU128(a ID) u128 {
	return u128{binary.BigEndian.Uint64(a[:8]), binary.BigEndian.Uint64(a[8:])}
}

func (a u128) cmp(b u128) int {
	switch {
	case a.hi < b.hi:
		return -1
	case a.hi > b.hi:
		return 1
	case a.lo < b.lo:
		return -1
	case a.lo > b.lo:
		return 1
	}
	return 0
}

// sub returns a-b mod 2^128.
func (a u128) sub(b u128) u128 {
	lo, borrow := bits.Sub64(a.lo, b.lo, 0)
	hi, _ := bits.Sub64(a.hi, b.hi, borrow)
	return u128{hi, lo}
}

func join(hi, lo uint64) ID {
	var id ID
	binary.BigEndian.PutUint64(id[:8], hi)
	binary.BigEndian.PutUint64(id[8:], lo)
	return id
}

// RandSource is the subset of math/rand functionality the ids package
// needs; it lets callers inject deterministic generators.
type RandSource interface {
	Uint64() uint64
}

// Random draws a uniformly random identifier from src.
func Random(src RandSource) ID {
	return join(src.Uint64(), src.Uint64())
}
