package transport

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"github.com/moara/moara/internal/aggregate"
	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/value"
)

// TestCrossCodecEquivalence is the correctness lock on the columnar
// codec: every wire sample — including the sketch states riding inside
// keyed GroupedStates inside BatchMsg — must round-trip through the
// columnar codec to a DeepEqual of the original, bare and nested in a
// BatchMsg, and must decode to the same result the reference gob
// encoding (envelope, gob_test.go) produces.
func TestCrossCodecEquivalence(t *testing.T) {
	RegisterGob()
	covered := make(map[reflect.Type]bool)
	for _, m := range wireSamples(t) {
		markCovered(covered, m)
		for _, tc := range []struct {
			name string
			msg  any
		}{
			{"bare", m},
			{"batched", core.BatchMsg{Items: []any{m}}},
		} {
			payload, err := core.AppendMessage(nil, tc.msg)
			if err != nil {
				t.Errorf("%T/%s: columnar encode: %v", m, tc.name, err)
				continue
			}
			got, rest, err := core.ReadMessage(payload)
			if err != nil {
				t.Errorf("%T/%s: columnar decode: %v", m, tc.name, err)
				continue
			}
			if len(rest) != 0 {
				t.Errorf("%T/%s: %d trailing bytes after decode", m, tc.name, len(rest))
				continue
			}
			if !reflect.DeepEqual(got, tc.msg) {
				t.Errorf("%T/%s: columnar round trip mismatch:\n got %#v\nwant %#v", m, tc.name, got, tc.msg)
				continue
			}
			// Cross-codec: the gob decode of the same message must be
			// indistinguishable from the columnar decode.
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(&envelope{FromAddr: "x", Payload: tc.msg}); err != nil {
				t.Errorf("%T/%s: gob encode: %v", m, tc.name, err)
				continue
			}
			var env envelope
			if err := gob.NewDecoder(&buf).Decode(&env); err != nil {
				t.Errorf("%T/%s: gob decode: %v", m, tc.name, err)
				continue
			}
			if !reflect.DeepEqual(got, env.Payload) {
				t.Errorf("%T/%s: codecs disagree:\ncolumnar %#v\n     gob %#v", m, tc.name, got, env.Payload)
			}
		}
	}
	assertWireTypesCovered(t, covered)
}

// TestColumnarFrameRoundTrip drives the framing layer itself: header
// plus several frames through a pipe, decoded with the connection-level
// reader primitives.
func TestColumnarFrameRoundTrip(t *testing.T) {
	RegisterGob()
	wire := appendConnHeader(nil, "10.0.0.1:7777")
	msgs := []any{
		core.CancelMsg{SID: core.QueryID{Num: 1}, Group: "g"},
		core.StatusMsg{Group: "g", Np: 3},
	}
	for _, m := range msgs {
		var err error
		if wire, err = appendFrame(wire, m); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(bytes.NewReader(wire))
	from, err := readConnHeader(br)
	if err != nil {
		t.Fatalf("header: %v", err)
	}
	if from != "10.0.0.1:7777" {
		t.Fatalf("header addr = %q", from)
	}
	var scratch []byte
	for i, want := range msgs {
		payload, err := readFrame(br, &scratch)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got, rest, err := core.ReadMessage(payload)
		if err != nil || len(rest) != 0 {
			t.Fatalf("frame %d: decode: %v (%d trailing)", i, err, len(rest))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: got %#v, want %#v", i, got, want)
		}
	}
}

// loopbackTraffic is a large grouped epoch report — one frame well past
// readFrame's 64 KB growth step and the reader's buffer — followed by a
// burst of 1,000 small frames.
func loopbackTraffic(t *testing.T) []any {
	t.Helper()
	grouped := aggregate.NewGrouped(aggregate.Spec{Kind: aggregate.KindAvg}, 0)
	for i := 0; i < 8000; i++ {
		grouped.AddKeyed(ids.FromKey("a"), fmt.Sprintf("key-%05d", i), value.Float(float64(i)/4))
	}
	big := core.EpochReportMsg{SID: core.QueryID{Num: 7}, Group: "g", Epoch: 3, State: grouped, Np: 1}
	if payload, err := core.AppendMessage(nil, big); err != nil || len(payload) <= 64<<10 {
		t.Fatalf("large sample payload is %d bytes (err %v), want > 64 KB", len(payload), err)
	}
	msgs := []any{big}
	for i := 0; i < 1000; i++ {
		msgs = append(msgs, core.CancelMsg{SID: core.QueryID{Num: uint64(i)}, Group: "g"})
	}
	return msgs
}

// TestFramesOverLoopback drives both ends of a real loopback connection.
// The dialing side must put every frame on the wire byte for byte, with
// Stats.BytesOut equal to what the peer received; the accepting side
// must dispatch every frame, the large one included, without a decode
// error.
func TestFramesOverLoopback(t *testing.T) {
	RegisterGob()
	// Each side sends its own traffic: send hands the states a message
	// carries back to the pool once written.
	t.Run("dialing side", func(t *testing.T) {
		msgs := loopbackTraffic(t)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		received := make(chan []byte, 1)
		go func() {
			c, err := ln.Accept()
			if err != nil {
				received <- nil
				return
			}
			defer c.Close()
			b, _ := io.ReadAll(c)
			received <- b
		}()
		nd, err := Listen("127.0.0.1:0", nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// The expected frames are encoded before send recycles the state.
		wants := make([][]byte, len(msgs))
		for i, m := range msgs {
			if wants[i], err = core.AppendMessage(nil, m); err != nil {
				t.Fatal(err)
			}
		}
		for _, m := range msgs {
			nd.send(ln.Addr().String(), m)
		}
		nd.Close() // hangs up, ending the reader's ReadAll
		var wire []byte
		select {
		case wire = <-received:
		case <-time.After(10 * time.Second):
			t.Fatal("reader never saw the connection close")
		}
		st := nd.Stats()
		if st.MsgsOut != uint64(len(msgs)) {
			t.Fatalf("msgsOut = %d, want %d", st.MsgsOut, len(msgs))
		}
		if st.BytesOut != uint64(len(wire)) {
			t.Fatalf("Stats.BytesOut = %d, reader received %d bytes", st.BytesOut, len(wire))
		}
		br := bufio.NewReader(bytes.NewReader(wire))
		if from, err := readConnHeader(br); err != nil || from != nd.Addr() {
			t.Fatalf("header: from %q, err %v", from, err)
		}
		var scratch []byte
		for i, want := range wants {
			payload, err := readFrame(br, &scratch)
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if !bytes.Equal(payload, want) {
				t.Fatalf("frame %d: %d bytes on the wire differ from the %d-byte encoding", i, len(payload), len(want))
			}
		}
		if _, err := readFrame(br, &scratch); err != io.EOF {
			t.Fatalf("after the last frame: %v, want EOF", err)
		}
	})

	t.Run("accepting side", func(t *testing.T) {
		msgs := loopbackTraffic(t)
		nodes := startCluster(t, 2, core.Config{})
		a, b := nodes[0], nodes[1]
		for _, m := range msgs {
			a.send(b.Addr(), m)
		}
		deadline := time.After(10 * time.Second)
		for {
			st := b.Stats()
			if st.MsgsIn >= uint64(len(msgs)) && st.BytesIn == a.Stats().BytesOut {
				if st.MsgsIn != uint64(len(msgs)) || st.DecodeErrors != 0 {
					t.Fatalf("msgsIn = %d, decodeErrors = %d, want %d and 0", st.MsgsIn, st.DecodeErrors, len(msgs))
				}
				return
			}
			select {
			case <-deadline:
				t.Fatalf("receiver stats never converged: %+v (sender bytesOut %d)", b.Stats(), a.Stats().BytesOut)
			case <-time.After(5 * time.Millisecond):
			}
		}
	})
}

// TestDialBackoffSuppressesRedials is the dial-storm regression test:
// a burst of sends toward a dead address must cost one dial attempt,
// with the rest suppressed by the negative cache until backoff expires.
func TestDialBackoffSuppressesRedials(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close() // nothing listens here anymore: connection refused
	nd, err := Listen("127.0.0.1:0", nil, Options{
		DialTimeout:   500 * time.Millisecond,
		RedialBackoff: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	const burst = 50
	for i := 0; i < burst; i++ {
		nd.send(dead, core.CancelMsg{Group: "g"})
	}
	st := nd.Stats()
	if st.Dials != 1 || st.DialErrors != 1 {
		t.Fatalf("dials = %d (errors %d), want exactly 1: the epoch burst re-dialed a dead peer", st.Dials, st.DialErrors)
	}
	if st.DialsSuppressed != burst-1 {
		t.Fatalf("suppressed = %d, want %d", st.DialsSuppressed, burst-1)
	}
	if st.MsgsOut != 0 {
		t.Fatalf("msgsOut = %d, want 0", st.MsgsOut)
	}
}

// TestDispatchAfterCloseDropsMessage locks the shutdown ordering fix:
// the closed check runs before core dispatch, so a message arriving
// after Close is dropped, not processed.
func TestDispatchAfterCloseDropsMessage(t *testing.T) {
	nodes := startCluster(t, 2, core.Config{})
	a, b := nodes[0], nodes[1]
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	before := b.Stats().MsgsIn
	if b.dispatch(a.ID(), a.Addr(), core.CancelMsg{Group: "g"}) {
		t.Fatal("dispatch after Close reported the node as live")
	}
	if got := b.Stats().MsgsIn; got != before {
		t.Fatalf("message handled after Close (msgsIn %d -> %d)", before, got)
	}
}

// TestCloseRaceUnderTraffic closes an agent while a peer is actively
// streaming epoch reports at it; under -race this shakes out handle-
// after-close races, and the closing side must never dispatch a message
// after Close returns.
func TestCloseRaceUnderTraffic(t *testing.T) {
	nodes := startCluster(t, 3, core.Config{})
	for i, nd := range nodes {
		nd.SetAttr("load", value.Int(int64(i)))
	}
	victim := nodes[2]
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			nodes[0].send(victim.Addr(), core.CancelMsg{Group: "g"})
			if i == 64 {
				// Let some traffic land before the close fires.
				time.Sleep(time.Millisecond)
			}
		}
	}()
	time.Sleep(5 * time.Millisecond)
	if err := victim.Close(); err != nil {
		t.Fatal(err)
	}
	after := victim.Stats().MsgsIn
	time.Sleep(10 * time.Millisecond)
	if got := victim.Stats().MsgsIn; got != after {
		t.Fatalf("node dispatched %d messages after Close returned", got-after)
	}
	close(stop)
	<-done
}

// TestDecodeErrorsCountedAndSurvived feeds a connection one malformed
// frame between two valid ones: the bad frame must be counted
// (the silent-teardown fix) and must NOT kill the connection — the
// frames around it still dispatch.
func TestDecodeErrorsCountedAndSurvived(t *testing.T) {
	nd := startCluster(t, 1, core.Config{})[0]
	c, err := net.Dial("tcp", nd.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	valid, err := appendFrame(nil, core.CancelMsg{Group: "g"})
	if err != nil {
		t.Fatal(err)
	}
	wire := appendConnHeader(nil, "203.0.113.9:1")
	wire = append(wire, valid...)
	wire = append(wire, 3, 0xC8, 0xDE, 0xAD) // a 3-byte frame with unknown tag 200
	wire = append(wire, valid...)
	if _, err := c.Write(wire); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		st := nd.Stats()
		if st.MsgsIn >= 2 && st.DecodeErrors >= 1 {
			if st.DecodeErrors != 1 {
				t.Fatalf("decodeErrors = %d, want 1", st.DecodeErrors)
			}
			return
		}
		select {
		case <-deadline:
			t.Fatalf("stats never converged: %+v", nd.Stats())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestBadVersionDropsConnection: a connection that opens with anything
// but the magic and a known codec version — an unknown version
// (compatibility rule), or the gob envelope stream pre-framing agents
// spoke — must be dropped and counted as one decode error, and the node
// must go on answering queries.
func TestBadVersionDropsConnection(t *testing.T) {
	RegisterGob()
	var gobStream bytes.Buffer
	if err := gob.NewEncoder(&gobStream).Encode(&envelope{FromAddr: "203.0.113.9:1", Payload: core.CancelMsg{Group: "g"}}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		preamble []byte
	}{
		{"unknown version", []byte{wireMagic, 'M', 'W', 99, 1, 'x'}},
		{"gob stream", gobStream.Bytes()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nd := startCluster(t, 1, core.Config{})[0]
			c, err := net.Dial("tcp", nd.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Write(tc.preamble); err != nil {
				t.Fatal(err)
			}
			deadline := time.After(5 * time.Second)
			for nd.Stats().DecodeErrors == 0 {
				select {
				case <-deadline:
					t.Fatal("bad preamble never counted")
				case <-time.After(5 * time.Millisecond):
				}
			}
			// The agent must have hung up on us.
			c.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := c.Read(make([]byte, 1)); err == nil {
				t.Fatal("connection survived a bad preamble")
			}
			if st := nd.Stats(); st.DecodeErrors != 1 || st.MsgsIn != 0 {
				t.Fatalf("decodeErrors = %d, msgsIn = %d, want 1 and 0", st.DecodeErrors, st.MsgsIn)
			}
			res, err := query(nd, "count(*)", 10*time.Second)
			if err != nil || res.Contributors != 1 {
				t.Fatalf("query after the dropped connection: %+v, %v", res.Agg, err)
			}
		})
	}
}

// FuzzDecodeFrame throws arbitrary bytes at the full inbound decode
// path — connection header, frame layer, message codec: it must error
// cleanly, never panic, and never allocate past the chunked-growth
// bound. Anything that decodes must re-encode.
func FuzzDecodeFrame(f *testing.F) {
	RegisterGob()
	for _, m := range wireSamples(f) {
		payload, err := core.AppendMessage(nil, m)
		if err != nil {
			continue
		}
		f.Add(payload)
		if len(payload) > 2 {
			f.Add(payload[:len(payload)/2]) // truncations
		}
	}
	// Key columns a decoder must reject: a repeated key and keys out of
	// order.
	grouped := aggregate.NewGrouped(aggregate.Spec{Kind: aggregate.KindAvg}, 8)
	grouped.AddKeyed(ids.FromKey("a"), "cs101", value.Float(10))
	grouped.AddKeyed(ids.FromKey("b"), "cs202", value.Float(30))
	report, err := core.AppendMessage(nil, core.EpochReportMsg{Group: "g", Epoch: 1, State: grouped})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Replace(report, []byte("cs202"), []byte("cs101"), 1))
	f.Add(bytes.Replace(report, []byte("cs101"), []byte("cs303"), 1))
	f.Add(appendConnHeader(nil, "127.0.0.1:1"))
	f.Add([]byte{wireMagic, 'M', 'W', wireVersion})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}) // huge frame length
	f.Fuzz(func(t *testing.T, data []byte) {
		// Message layer directly.
		if m, rest, err := core.ReadMessage(data); err == nil {
			if len(rest) > len(data) {
				t.Fatalf("decoder returned more than it was given")
			}
			if _, err := core.AppendMessage(nil, m); err != nil {
				t.Fatalf("decoded message failed to re-encode: %v", err)
			}
		}
		// Stream layer: header + frames, as readLoop consumes them.
		br := bufio.NewReader(bytes.NewReader(data))
		if _, err := readConnHeader(br); err != nil {
			return
		}
		var scratch []byte
		for {
			payload, err := readFrame(br, &scratch)
			if err != nil {
				return
			}
			_, _, _ = core.ReadMessage(payload)
		}
	})
}

// TestSentStateReturnsToPool: Send takes over the state hold a message
// carries. The peer decodes its own copy, so the hold goes back to the
// pool once the frame is written, and at once when the destination is
// unknown; a self-send hands it to the local core instead, which owns it
// from then on (it rejects this report, for a subscription it does not
// hold, and hands the hold back itself).
func TestSentStateReturnsToPool(t *testing.T) {
	RegisterGob()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = io.Copy(io.Discard, c)
	}()
	nd, err := Listen("127.0.0.1:0", []string{ln.Addr().String()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	report := func() (*aggregate.GroupedState, core.EpochReportMsg) {
		g := aggregate.NewGrouped(aggregate.Spec{Kind: aggregate.KindSum}, 0)
		g.AddKeyed(nd.ID(), "k", value.Int(1))
		g.Retain() // the message's hold
		return g, core.EpochReportMsg{SID: core.QueryID{Num: 1}, Group: "g", Epoch: 1, State: g}
	}
	send := func(to ids.ID, m any) { nd.Do(func(*core.Node) { nodeEnv{nd}.Send(to, m) }) }

	g, m := report()
	send(IDOf(ln.Addr().String()), m)
	for deadline := time.Now().Add(5 * time.Second); nd.Stats().MsgsOut == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the report was never written")
		}
	}
	if g.KeyCount() != 0 {
		t.Fatal("a written report's state kept the message's hold")
	}

	g, m = report()
	send(ids.FromKey("not in the roster"), m)
	if g.KeyCount() != 0 {
		t.Fatal("a report to an unknown peer kept the message's hold")
	}

	g, m = report()
	g.Retain() // the sender's own hold, which only the test hands back
	send(nd.ID(), m)
	for i := 0; i < 20; i++ {
		time.Sleep(time.Millisecond)
		nd.Do(func(*core.Node) {
			if g.KeyCount() != 1 {
				t.Fatal("a self-sent report's hold went back twice: the transport released the hold its receiver owns")
			}
		})
	}
}

// TestMessageCodecAllocs locks the message codec's steady state with a
// warm pool: a 16-key report decodes into a pooled shell at the cost of
// boxing the message, a status or install message also pays for its
// slices and strings, and every message encodes into a pre-grown buffer
// without allocating.
func TestMessageCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled shells at random")
	}
	report := func(kind aggregate.Kind) core.EpochReportMsg {
		g := aggregate.NewGrouped(aggregate.Spec{Kind: kind}, 64)
		for i := 0; i < 16; i++ {
			g.AddKeyed(ids.FromUint64(uint64(i+1)), fmt.Sprintf("slice-%02d", i), value.Float(float64(i)/3))
		}
		return core.EpochReportMsg{SID: core.QueryID{Origin: ids.FromKey("a"), Num: 42},
			Group: "apache = true", Epoch: 12, State: g, Contributors: 16, Np: 5, Unknown: 1.5}
	}
	nodeA, nodeB := ids.FromKey("a"), ids.FromKey("b")
	for _, tc := range []struct {
		name      string
		msg       any
		maxDecode float64
	}{
		{"report avg", report(aggregate.KindAvg), 2},
		{"report max", report(aggregate.KindMax), 2},
		{"status", core.StatusMsg{Group: "apache = true", Prune: true, Np: 4, Unknown: 0.5, LastSeq: 9,
			UpdateSet: []core.SetEntry{{ID: nodeA, Level: 1}, {ID: nodeB, Level: 2, Jump: true}}}, 3},
		{"install", core.InstallMsg{SID: core.QueryID{Origin: nodeA, Num: 42}, Group: "g", Eval: "e",
			Attr: "mem_util", Spec: aggregate.Spec{Kind: aggregate.KindAvg}, GroupBy: "slice",
			Period: 500 * time.Millisecond, Gen: 5, Level: 2, Jump: true, ReplyTo: nodeB}, 3},
	} {
		wire, err := core.AppendMessage(nil, tc.msg)
		if err != nil {
			t.Fatal(err)
		}
		decode := func() {
			m, _, err := core.ReadMessage(wire)
			if err != nil {
				t.Fatal(err)
			}
			if r, ok := m.(core.EpochReportMsg); ok {
				aggregate.Recycle(r.State)
			}
		}
		decode() // warm the pool and the shell's key column
		if avg := testing.AllocsPerRun(100, decode); avg > tc.maxDecode {
			t.Errorf("%s: warm decode allocates %.1f objects/op, want <= %.0f", tc.name, avg, tc.maxDecode)
		}
		buf := make([]byte, 0, 2*len(wire))
		if avg := testing.AllocsPerRun(100, func() { buf, _ = core.AppendMessage(buf[:0], tc.msg) }); avg > 0 {
			t.Errorf("%s: encode allocates %.1f objects/op, want 0", tc.name, avg)
		}
	}
}
