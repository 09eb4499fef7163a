package wirefmt

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
)

// fields holds one field of every kind a Codec carries.
type fields struct {
	b     byte
	ok    bool
	u     uint64
	i     int64
	n     int
	f     float64
	s     string
	raw   []byte
	fixed [4]byte
	list  []uint64
}

// wire is the layout the tests run in both directions.
func (x *fields) wire(c *Codec) {
	c.Byte(&x.b)
	c.Bool(&x.ok)
	c.Uvarint(&x.u)
	c.Varint(&x.i)
	c.Int(&x.n)
	c.Float(&x.f)
	c.String(&x.s)
	c.Bytes(&x.raw)
	c.Fixed(x.fixed[:])
	if n, isNil := c.Len(len(x.list), x.list == nil, 1); c.Dec && !isNil {
		x.list = make([]uint64, n)
	}
	for i := range x.list {
		c.Uvarint(&x.list[i])
	}
}

func encode(x fields) []byte {
	c := Codec{}
	x.wire(&c)
	return c.B
}

func decode(b []byte) (fields, []byte, error) {
	var x fields
	c := Codec{B: b, Dec: true}
	x.wire(&c)
	return x, c.B, c.Err()
}

// same compares two fields, floats by their bits so NaNs compare.
func same(a, b fields) bool {
	if math.Float64bits(a.f) != math.Float64bits(b.f) || !bytes.Equal(a.raw, b.raw) {
		return false
	}
	a.f, b.f, a.raw, b.raw = 0, 0, nil, nil
	return reflect.DeepEqual(a, b)
}

func edgeCases() []fields {
	return []fields{
		{},
		{b: 255, ok: true, u: math.MaxUint64, i: math.MinInt64, n: math.MinInt,
			f: math.Inf(1), raw: []byte{1}, fixed: [4]byte{1, 2, 3, 4}, list: []uint64{}},
		{i: math.MaxInt64, n: math.MaxInt, f: math.Inf(-1), s: "héllo",
			list: []uint64{0, math.MaxUint64}},
		{f: math.NaN(), s: "x", raw: bytes.Repeat([]byte{0xFF}, 300)},
		{f: math.Float64frombits(0x7FF8_0000_0000_0001), u: 1 << 63},
		{f: math.Copysign(0, -1), i: -1, n: -1},
	}
}

// TestRoundTripEdgeValues: every method carries its edge values, and a
// nil collection comes back nil while an empty one comes back empty.
func TestRoundTripEdgeValues(t *testing.T) {
	for i, want := range edgeCases() {
		got, rest, err := decode(encode(want))
		if err != nil || len(rest) != 0 {
			t.Fatalf("case %d: err %v, %d trailing bytes", i, err, len(rest))
		}
		if !same(got, want) {
			t.Errorf("case %d: got %+v, want %+v", i, got, want)
		}
		if (got.list == nil) != (want.list == nil) {
			t.Errorf("case %d: list nil = %v, want %v", i, got.list == nil, want.list == nil)
		}
	}
}

// TestStrictPrefixesFail: every strict prefix of a valid encoding fails
// with ErrTruncated or ErrCorrupt, and none panics.
func TestStrictPrefixesFail(t *testing.T) {
	for i, x := range edgeCases() {
		full := encode(x)
		for k := range full {
			_, _, err := decode(full[:k])
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("case %d: prefix %d of %d: err %v", i, k, len(full), err)
			}
		}
	}
}

// TestLenRejectsHostileCount: a length the remaining bytes cannot carry
// at the stated element size is corrupt, and rejecting it allocates
// nothing.
func TestLenRejectsHostileCount(t *testing.T) {
	input := func(count uint64) []byte {
		c := Codec{}
		c.Uvarint(&count)
		return append(c.B, make([]byte, 10)...)
	}
	for _, tc := range []struct {
		count   uint64 // length+1 on the wire
		minElem int
		want    int
		corrupt bool
	}{
		{11, 1, 10, false},
		{12, 1, 0, true},
		{2, 8, 1, false},
		{3, 8, 0, true},
		{math.MaxUint64, 1, 0, true},
		{1, 0, 0, false},
	} {
		c := Codec{B: input(tc.count), Dec: true}
		n, isNil := c.Len(0, false, tc.minElem)
		if errors.Is(c.Err(), ErrCorrupt) != tc.corrupt || n != tc.want || isNil != tc.corrupt {
			t.Errorf("count %d at %d bytes each: n %d nil %v err %v", tc.count, tc.minElem, n, isNil, c.Err())
		}
	}
	b := input(1 << 40)
	if avg := testing.AllocsPerRun(100, func() {
		c := Codec{B: b, Dec: true}
		c.Len(0, false, 1)
	}); avg != 0 {
		t.Errorf("rejecting a hostile count allocates %.1f objects", avg)
	}
}

// TestErrorSticks: after the first error every later call leaves its
// destination untouched, and the first error is the one reported.
func TestErrorSticks(t *testing.T) {
	sentinel := fields{b: 9, ok: true, u: 9, i: 9, n: 9, f: 9, s: "keep",
		raw: []byte("keep"), fixed: [4]byte{9, 9, 9, 9}, list: []uint64{9}}
	full := encode(edgeCases()[1])
	for _, tc := range []struct {
		name  string
		input []byte
		err   error
	}{
		{"empty input", nil, ErrTruncated},
		{"truncated after the byte", full[:1], ErrTruncated},
		{"corrupt bool", append([]byte{7, 2}, full[2:]...), ErrCorrupt},
	} {
		x := sentinel
		x.raw = bytes.Clone(sentinel.raw)
		x.list = []uint64{9}
		c := Codec{B: tc.input, Dec: true}
		x.wire(&c)
		if !errors.Is(c.Err(), tc.err) {
			t.Errorf("%s: err %v, want %v", tc.name, c.Err(), tc.err)
		}
		if len(tc.input) > 0 {
			x.b = sentinel.b // the one field read before the error
		}
		if !same(x, sentinel) {
			t.Errorf("%s: destinations written after the error: %+v", tc.name, x)
		}
	}
	c := Codec{Dec: true}
	c.Fail(ErrTruncated)
	c.Corrupt("later")
	c.Fail(errors.New("later"))
	if c.Err() != ErrTruncated {
		t.Errorf("first error replaced: %v", c.Err())
	}
}

// TestBoolRejectsOtherBytes: only 0 and 1 are booleans.
func TestBoolRejectsOtherBytes(t *testing.T) {
	for b := 2; b < 256; b++ {
		v := true
		c := Codec{B: []byte{byte(b)}, Dec: true}
		if c.Bool(&v); !errors.Is(c.Err(), ErrCorrupt) || !v {
			t.Fatalf("byte %d: err %v, value %v", b, c.Err(), v)
		}
	}
}

// TestStringKeepsRepeatedDestination: a decoded string that spells the
// destination keeps it and allocates nothing.
func TestStringKeepsRepeatedDestination(t *testing.T) {
	key := "slice-07"
	enc := Codec{}
	enc.String(&key)
	dst := "slice-" + string([]byte{'0', '7'})
	if avg := testing.AllocsPerRun(100, func() {
		c := Codec{B: enc.B, Dec: true}
		c.String(&dst)
	}); avg != 0 {
		t.Errorf("decoding a repeated string allocates %.1f objects", avg)
	}
	other := "slice-08"
	c := Codec{B: enc.B, Dec: true}
	if c.String(&other); other != key || c.Err() != nil {
		t.Errorf("decoded %q (err %v), want %q", other, c.Err(), key)
	}
}
