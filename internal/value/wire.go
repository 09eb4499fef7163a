package value

import "github.com/moara/moara/internal/wirefmt"

// Wire carries the value in the columnar codec: a kind byte plus only
// the active payload (varint int, 8-byte float, length-prefixed string,
// or one bool byte). It is a value's only encoding.
func (v *Value) Wire(c *wirefmt.Codec) {
	k := byte(v.kind)
	if c.Byte(&k); c.Dec {
		*v = Value{kind: Kind(k)}
	}
	switch v.kind {
	case KindInvalid:
	case KindInt:
		c.Varint(&v.i)
	case KindFloat:
		c.Float(&v.f)
	case KindString:
		c.String(&v.s)
	case KindBool:
		c.Bool(&v.b)
	default:
		c.Corrupt("value: wire kind %d", k)
	}
}
