// Columnar wire codec for the hot message types. Each message encodes
// as a one-byte tag plus a body of varint ints, 8-byte floats,
// length-prefixed strings and aggregate states (aggregate.WireState).
// Every body is written once, as a wire method over a wirefmt.Codec that
// runs in both directions; the transport's golden test pins its bytes.
// Tag 0 wraps a gob blob for the message types without a columnar
// layout — the overlay and the cold one-shot query plane, the types
// gobTypes registers — one batch item at a time, so a cold item in a
// batch costs only itself a blob.
// The set of aggregate states is closed and each has a layout, so a
// tagged message always encodes in columnar form.
package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"slices"

	"github.com/moara/moara/internal/aggregate"
	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/pastry"
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
	// A full report with its Seq (tag 1 is one with Seq 0), and an
	// unchanged report, which carries no state.
	tagReportSeq  = 9
	tagReportSame = 10

	// maxMsgDepth bounds BatchMsg nesting (hostile input on decode;
	// real batches are one level deep).
	maxMsgDepth = 16
)

// wireFallback is the gob envelope behind tag 0. The indirection
// through an interface field is what lets gob carry any registered
// concrete message type.
type wireFallback struct{ M any }

// gobTypes is gob's whole registry: every message type tag 0 carries,
// top-level or as a routed payload. None holds a Value or a State,
// which ride only the columnar layouts.
var gobTypes = []any{
	pastry.RouteMsg{}, pastry.JoinRequest{}, pastry.JoinReply{}, pastry.Announce{},
	pastry.AnnounceAck{}, pastry.Heartbeat{}, pastry.Obituary{}, pastry.RepairProbe{},
	SubQueryMsg{}, QueryMsg{}, ProbeMsg{}, ProbeRespMsg{}, SubscribeMsg{}, CancelMsg{},
}

func init() {
	for _, t := range gobTypes {
		gob.Register(t)
	}
}

// GobTypes returns one zero value of every type tag 0 carries.
func GobTypes() []any { return slices.Clone(gobTypes) }

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
// unconsumed remainder. Arbitrary input errors cleanly. A pooled kind
// decodes to its pointer form, which AppendMessage encodes like a value.
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
	switch m := m.(type) {
	case EpochReportMsg:
		return m.tag()
	case *EpochReportMsg:
		return m.tag()
	case BatchMsg, *BatchMsg:
		return tagBatch
	case ResponseMsg, *ResponseMsg:
		return tagResponse
	case SubscribeMsg:
		return tagSubscribe
	case InstallMsg:
		return tagInstall
	case SampleMsg:
		return tagSample
	case CancelMsg:
		return tagCancel
	case StatusMsg, *StatusMsg:
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
	case tagEpochReport, tagReportSeq, tagReportSame:
		if v, ok := (*m).(EpochReportMsg); ok {
			v.wire(c, tag)
		} else {
			reportMsgs.carried(c, m).wire(c, tag)
		}
	case tagBatch:
		if v, ok := (*m).(BatchMsg); ok {
			v.wire(c, depth)
		} else {
			batchMsgs.carried(c, m).wire(c, depth)
		}
	case tagResponse:
		if v, ok := (*m).(ResponseMsg); ok {
			v.wire(c)
		} else {
			responseMsgs.carried(c, m).wire(c)
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
		if v, ok := (*m).(StatusMsg); ok {
			v.wire(c)
		} else {
			statusMsgs.carried(c, m).wire(c)
		}
	default:
		c.Corrupt("core: wire message tag %d", tag)
	}
}

// carried is the pooled message *m carries in pointer form; on decode, a
// message drawn from l and stored in *m.
func (l *freeList[T]) carried(c *wirefmt.Codec, m *any) *T {
	if c.Dec {
		v := l.get()
		*m = v
		return v
	}
	v, _ := (*m).(*T)
	return v
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
		if q, ok := f.M.(QueryMsg); ok {
			// A query is handled in its pointer form.
			*m = &q
		}
	}
}

func (q *QueryID) wire(c *wirefmt.Codec) {
	c.Fixed(q.Origin[:])
	c.Uvarint(&q.Num)
}

// tag is the report's layout: tag 1 keeps its bytes for a full report
// with Seq 0.
func (m *EpochReportMsg) tag() byte {
	switch {
	case m.Since != 0:
		return tagReportSame
	case m.Seq != 0:
		return tagReportSeq
	}
	return tagEpochReport
}

// wire carries the report in the layout tag names: tag 1's body, less
// the state in an unchanged report, then Seq or Since. A decoded Seq or
// Since of 0 would re-encode under another tag, so it is corrupt.
func (m *EpochReportMsg) wire(c *wirefmt.Codec, tag byte) {
	m.SID.wire(c)
	c.String(&m.Group)
	c.Uvarint(&m.Epoch)
	if tag != tagReportSame {
		aggregate.WireState(c, &m.State)
	}
	c.Varint(&m.Contributors)
	c.Int(&m.Np)
	c.Float(&m.Unknown)
	switch tag {
	case tagReportSeq:
		c.Uvarint(&m.Seq)
	case tagReportSame:
		c.Uvarint(&m.Since)
	}
	if c.Dec && tag != tagEpochReport && m.Seq == 0 && m.Since == 0 {
		c.Corrupt("core: report numbered 0")
	}
}

func (m *BatchMsg) wire(c *wirefmt.Codec, depth int) {
	if depth >= maxMsgDepth {
		c.Corrupt("core: batch nesting too deep")
		return
	}
	if n, isNil := c.Len(len(m.Items), m.Items == nil, 1); c.Dec {
		// A decoded batch refills the item buffer its pooled message kept.
		if m.Items = append(m.Items[:0], make([]any, n)...); isNil {
			m.Items = nil
		} else if m.Items == nil {
			m.Items = []any{}
		}
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
	if n, isNil := c.Len(len(m.UpdateSet), m.UpdateSet == nil, ids.Bytes+2); c.Dec {
		// A decoded status refills the buffer its pooled message kept.
		if m.UpdateSet = append(m.UpdateSet[:0], make([]SetEntry, n)...); isNil {
			m.UpdateSet = nil
		} else if m.UpdateSet == nil {
			m.UpdateSet = []SetEntry{}
		}
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
