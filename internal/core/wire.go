// Columnar wire codec for the hot message types. Each message encodes
// as a one-byte tag plus a body of varint ints, 8-byte floats,
// length-prefixed strings and aggregate states (aggregate.WireState).
// Every body is written once, as a wire method over a wirefmt.Codec that
// runs in both directions; the transport's golden test pins its bytes.
// Tag 0 wraps a gob blob for the message types without a columnar
// layout — the cold one-shot query plane, anything future — one batch
// item at a time, so a cold item in a batch costs only itself a blob.
// The set of aggregate states is closed and each has a layout, so a
// tagged message always encodes in columnar form.
package core

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"github.com/moara/moara/internal/aggregate"
	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/wirefmt"
)

// Message tags. Tag 0 is the gob fallback; the rest are the hot
// standing-query path. New tags append — existing values are frozen by
// the transport's codec version byte (see internal/transport).
const (
	tagGob         = 0
	tagEpochReport = 1
	tagBatch       = 2
	tagResponse    = 3
	tagSubscribe   = 4
	tagInstall     = 5
	tagSample      = 6
	tagCancel      = 7
	tagStatus      = 8

	// maxMsgDepth bounds BatchMsg nesting (hostile input on decode;
	// real batches are one level deep).
	maxMsgDepth = 16
)

// wireFallback is the gob envelope behind tag 0. The indirection
// through an interface field is what lets gob carry any registered
// concrete message type.
type wireFallback struct{ M any }

// AppendMessage appends one message: columnar when its type has a
// layout, a tagged gob blob otherwise. The result is self-delimiting:
// ReadMessage returns the exact unconsumed remainder.
func AppendMessage(b []byte, m any) ([]byte, error) {
	c := wirefmt.Codec{B: b}
	if wireMessage(&c, &m, 0); c.Err() != nil {
		return nil, c.Err()
	}
	return c.B, nil
}

// ReadMessage decodes one AppendMessage-encoded message, returning the
// unconsumed remainder. Arbitrary input errors cleanly.
func ReadMessage(b []byte) (any, []byte, error) {
	c := wirefmt.Codec{B: b, Dec: true}
	var m any
	if wireMessage(&c, &m, 0); c.Err() != nil {
		return nil, nil, c.Err()
	}
	return m, c.B, nil
}

// tagOf is the columnar tag of m's type, or tagGob.
func tagOf(m any) byte {
	switch m.(type) {
	case EpochReportMsg:
		return tagEpochReport
	case BatchMsg:
		return tagBatch
	case ResponseMsg:
		return tagResponse
	case SubscribeMsg:
		return tagSubscribe
	case InstallMsg:
		return tagInstall
	case SampleMsg:
		return tagSample
	case CancelMsg:
		return tagCancel
	case StatusMsg:
		return tagStatus
	}
	return tagGob
}

// wireMessage carries one message: its tag, then the body the tag
// names. Encoding writes the tag of m's type; decoding reads the tag and
// stores a fresh message in *m.
func wireMessage(c *wirefmt.Codec, m *any, depth int) {
	tag := tagOf(*m)
	c.Byte(&tag)
	switch tag {
	case tagGob:
		wireGob(c, m)
	case tagEpochReport:
		v, _ := (*m).(EpochReportMsg)
		if v.wire(c); c.Dec {
			*m = v
		}
	case tagBatch:
		v, _ := (*m).(BatchMsg)
		if v.wire(c, depth); c.Dec {
			*m = v
		}
	case tagResponse:
		v, _ := (*m).(ResponseMsg)
		if v.wire(c); c.Dec {
			*m = v
		}
	case tagSubscribe:
		v, _ := (*m).(SubscribeMsg)
		if v.wire(c); c.Dec {
			*m = v
		}
	case tagInstall:
		v, _ := (*m).(InstallMsg)
		if v.wire(c); c.Dec {
			*m = v
		}
	case tagSample:
		v, _ := (*m).(SampleMsg)
		if v.wire(c); c.Dec {
			*m = v
		}
	case tagCancel:
		v, _ := (*m).(CancelMsg)
		if v.wire(c); c.Dec {
			*m = v
		}
	case tagStatus:
		v, _ := (*m).(StatusMsg)
		if v.wire(c); c.Dec {
			*m = v
		}
	default:
		c.Corrupt("core: wire message tag %d", tag)
	}
}

// wireGob carries *m as a length-prefixed gob blob.
func wireGob(c *wirefmt.Codec, m *any) {
	var blob []byte
	if !c.Dec {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(wireFallback{M: *m}); err != nil {
			c.Fail(fmt.Errorf("core: wire fallback for %T: %w", *m, err))
			return
		}
		blob = buf.Bytes()
	}
	if c.Bytes(&blob); c.Dec && c.Err() == nil {
		var f wireFallback
		if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&f); err != nil {
			c.Fail(fmt.Errorf("core: wire fallback: %w", err))
		}
		*m = f.M
	}
}

func (q *QueryID) wire(c *wirefmt.Codec) {
	c.Fixed(q.Origin[:])
	c.Uvarint(&q.Num)
}

func (m *EpochReportMsg) wire(c *wirefmt.Codec) {
	m.SID.wire(c)
	c.String(&m.Group)
	c.Uvarint(&m.Epoch)
	aggregate.WireState(c, &m.State)
	c.Varint(&m.Contributors)
	c.Int(&m.Np)
	c.Float(&m.Unknown)
}

func (m *BatchMsg) wire(c *wirefmt.Codec, depth int) {
	if depth >= maxMsgDepth {
		c.Corrupt("core: batch nesting too deep")
		return
	}
	if n, isNil := c.Len(len(m.Items), m.Items == nil, 1); c.Dec && !isNil {
		m.Items = takeBatchBuf(n)[:n]
	}
	for i := range m.Items {
		wireMessage(c, &m.Items[i], depth+1)
	}
}

func (m *ResponseMsg) wire(c *wirefmt.Codec) {
	m.QID.wire(c)
	c.String(&m.Group)
	aggregate.WireState(c, &m.State)
	c.Bool(&m.Dup)
	c.Varint(&m.Contributors)
	c.Int(&m.Np)
	c.Float(&m.Unknown)
}

func (m *SubscribeMsg) wire(c *wirefmt.Codec) {
	m.SID.wire(c)
	c.String(&m.Group)
	c.String(&m.Eval)
	c.String(&m.Attr)
	aggregate.WireSpec(c, &m.Spec)
	c.String(&m.GroupBy)
	c.Varint((*int64)(&m.Period))
	c.Uvarint(&m.Gen)
	c.Uvarint(&m.MinEpoch)
	c.Fixed(m.ReplyTo[:])
}

func (m *InstallMsg) wire(c *wirefmt.Codec) {
	m.SID.wire(c)
	c.String(&m.Group)
	c.String(&m.Eval)
	c.String(&m.Attr)
	aggregate.WireSpec(c, &m.Spec)
	c.String(&m.GroupBy)
	c.Varint((*int64)(&m.Period))
	c.Uvarint(&m.Gen)
	c.Int(&m.Level)
	c.Bool(&m.Jump)
	c.Fixed(m.ReplyTo[:])
}

func (m *SampleMsg) wire(c *wirefmt.Codec) {
	m.SID.wire(c)
	c.String(&m.Group)
	c.Uvarint(&m.Epoch)
	c.Varint((*int64)(&m.At))
	aggregate.WireState(c, &m.State)
	c.Varint(&m.Contributors)
	c.Float(&m.Expected)
}

func (m *CancelMsg) wire(c *wirefmt.Codec) {
	m.SID.wire(c)
	c.String(&m.Group)
}

func (m *StatusMsg) wire(c *wirefmt.Codec) {
	c.String(&m.Group)
	c.Bool(&m.Prune)
	if n, isNil := c.Len(len(m.UpdateSet), m.UpdateSet == nil, ids.Bytes+2); c.Dec && !isNil {
		m.UpdateSet = make([]SetEntry, n)
	}
	for i := range m.UpdateSet {
		e := &m.UpdateSet[i]
		c.Fixed(e.ID[:])
		c.Int(&e.Level)
		c.Bool(&e.Jump)
	}
	c.Int(&m.Np)
	c.Float(&m.Unknown)
	c.Uvarint(&m.LastSeq)
}
