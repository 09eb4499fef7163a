package transport

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/moara/moara/internal/aggregate"
	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/pastry"
	"github.com/moara/moara/internal/simnet"
	"github.com/moara/moara/internal/value"
)

// wireSamples builds one populated sample of every wire type, in its
// interesting shapes. Both codec sweeps — the gob round trip below and
// the cross-codec equivalence sweep in wire_test.go — iterate this same
// list, so a type core registers for tag 0 but forgotten here fails the
// coverage check in CI instead of at an agent's first use.
func wireSamples(t testing.TB) []any {
	t.Helper()
	nodeA, nodeB := ids.FromKey("a"), ids.FromKey("b")
	qid := core.QueryID{Origin: nodeA, Num: 42}
	spec := aggregate.Spec{Kind: aggregate.KindAvg}

	sum := &aggregate.SumState{Valid: true, V: value.Int(7), N: 2}
	grouped := aggregate.NewGrouped(spec, 8)
	grouped.AddKeyed(nodeA, "cs101", value.Float(10))
	grouped.AddKeyed(nodeB, "cs202", value.Float(30))

	topk := &aggregate.TopKState{K: 2, N: 1,
		Entries: []aggregate.Entry{{Node: nodeA, Value: value.Int(9)}}}

	// Sketch states, in their interesting shapes: a sparse and a dense
	// HLL (the dense form is what a high-cardinality root holds), a
	// quantile compactor with a populated level hierarchy, Misra-Gries
	// counters, a union with spill, and a collect at cap.
	dcountSparse := &aggregate.DCountState{}
	dcountSparse.Add(nodeA, value.Str("linux"))
	dcountSparse.Add(nodeB, value.Str("plan9"))
	dcountDense := &aggregate.DCountState{}
	for i := 0; i < 4000; i++ {
		dcountDense.Add(nodeA, value.Int(int64(i)))
	}
	if dcountDense.Dense == nil {
		t.Fatal("dense-mode HLL sample did not promote")
	}
	quant := &aggregate.QuantileState{Q: 0.99, N: 3, Coin: 5,
		Levels: [][]float64{{1.5, 2.5}, {7}}}
	topkeys := &aggregate.TopKeysState{K: 2, N: 5,
		Counts: map[string]int64{"linux": 3, "plan9": 2}}
	union := &aggregate.UnionState{Cap: 2, N: 5, Dropped: true,
		Keys: []string{"a", "b"},
		Entries: []aggregate.Entry{
			{Node: nodeA, Value: value.Str("a")},
			{Node: nodeB, Value: value.Str("b")},
		}}
	collect := &aggregate.CollectState{Cap: 2, N: 3,
		Entries: []aggregate.Entry{
			{Node: nodeA, Value: value.Int(1)},
			{Node: nodeB, Value: value.Int(2)},
		}}

	// A spilled collect nested inside a keyed GroupedState: the shape an
	// epoch report of `collect(x) group by slice` has at a subtree root
	// that saw more contributions than SetCap.
	groupedCollect := aggregate.NewGrouped(aggregate.Spec{Kind: aggregate.KindCollect}, 8)
	for i := 0; i < aggregate.SetCap+8; i++ {
		groupedCollect.AddKeyed(ids.FromKey(fmt.Sprintf("spill-node-%03d", i)), "cs101", value.Int(int64(i)))
	}

	samples := []any{
		pastry.RouteMsg{Key: nodeA, Hops: 3,
			Payload: core.ProbeMsg{QID: qid, Group: "g", ReplyTo: nodeB}},
		pastry.RouteMsg{Key: nodeA, Hops: 1, Maint: true,
			Payload: pastry.RepairProbe{Origin: nodeB}},
		// A standing query's install and cancel, routed to a tree root.
		pastry.RouteMsg{Key: nodeB, Hops: 2,
			Payload: core.SubscribeMsg{SID: qid, Group: "slice = cs101", Attr: "mem_util", Spec: spec,
				GroupBy: "slice", Period: time.Second, Gen: 2, MinEpoch: 3, ReplyTo: nodeA}},
		pastry.RouteMsg{Key: nodeB, Hops: 2, Payload: core.CancelMsg{SID: qid, Group: "slice = cs101"}},
		pastry.JoinRequest{Joiner: nodeA, Rows: []ids.ID{nodeB}, Hops: 1},
		pastry.JoinReply{Rows: []ids.ID{nodeA}, Leaf: []ids.ID{nodeB}},
		pastry.Announce{ID: nodeA},
		pastry.AnnounceAck{Known: []ids.ID{nodeA, nodeB}},
		pastry.Heartbeat{Ack: true},
		pastry.Obituary{Dead: nodeB},
		core.SubQueryMsg{QID: qid, Group: "slice = cs101", Eval: "a = 1", Attr: "mem_util",
			Spec: spec, GroupBy: "slice", ReplyTo: nodeB},
		core.QueryMsg{QID: qid, Seq: 7, Group: "g", Eval: "e", Attr: "mem_util",
			Spec: spec, GroupBy: "slice", Level: 2, ReplyTo: nodeA, Jump: true},
		core.ResponseMsg{QID: qid, Group: "g", State: grouped, Contributors: 7, Np: 3, Unknown: 1.5},
		core.StatusMsg{Group: "g", Prune: true, Np: 4, Unknown: 0.5, LastSeq: 9,
			UpdateSet: []core.SetEntry{{ID: nodeA, Level: 1}}},
		core.ProbeMsg{QID: qid, Group: "g", ReplyTo: nodeA},
		core.ProbeRespMsg{QID: qid, Group: "g", Cost: 12.5},
		core.SubscribeMsg{SID: qid, Group: "slice = cs101", Eval: "a = 1", Attr: "mem_util",
			Spec: spec, GroupBy: "slice", Period: 2 * time.Second, Gen: 4, MinEpoch: 6, ReplyTo: nodeB},
		core.InstallMsg{SID: qid, Group: "g", Eval: "e", Attr: "mem_util", Spec: spec,
			GroupBy: "slice", Period: 500 * time.Millisecond, Gen: 5, Level: 2, Jump: true, ReplyTo: nodeA},
		core.EpochReportMsg{SID: qid, Group: "g", Epoch: 12, State: grouped, Contributors: 9, Np: 5, Unknown: 1.5},
		core.SampleMsg{SID: qid, Group: "g", Epoch: 13, At: 42 * time.Second, State: grouped,
			Contributors: 11, Expected: 12.5},
		core.SampleMsg{SID: qid, Group: "g", Epoch: 14, State: sum},
		core.CancelMsg{SID: qid, Group: "g"},
		// A coalesced wire batch: several standing queries' epoch
		// reports (with nested keyed GroupedState payloads) sharing one
		// tree edge, plus the cancel and status traffic that rides along.
		core.BatchMsg{Items: []any{
			core.EpochReportMsg{SID: qid, Group: "g", Epoch: 3, State: grouped, Np: 2},
			core.EpochReportMsg{SID: core.QueryID{Origin: nodeB, Num: 7}, Group: "g", Epoch: 4, State: grouped},
			core.ResponseMsg{QID: qid, Group: "g", State: grouped, Np: 1},
			core.CancelMsg{SID: qid, Group: "g"},
			core.StatusMsg{Group: "g", Np: 1, UpdateSet: []core.SetEntry{{ID: nodeB, Level: 2}}},
		}},
		core.BatchMsg{},
		core.ResponseMsg{QID: qid, Group: "g", State: sum},
		core.ResponseMsg{QID: qid, Group: "g", State: &aggregate.CountState{N: 4}},
		core.ResponseMsg{QID: qid, Group: "g",
			State: &aggregate.ExtremeState{Max: true, Valid: true, N: 2,
				Best: aggregate.Entry{Node: nodeA, Value: value.Int(3)}}},
		core.ResponseMsg{QID: qid, Group: "g",
			State: &aggregate.AvgState{Sum: *sum}},
		core.ResponseMsg{QID: qid, Group: "g", State: topk},
		core.ResponseMsg{QID: qid, Group: "g",
			State: &aggregate.EnumState{Entries: topk.Entries}},
		core.ResponseMsg{QID: qid, Group: "g",
			State: &aggregate.StdState{N: 3, Sum: 6, SumSq: 14}},
		core.ResponseMsg{QID: qid, Group: "g", State: dcountSparse},
		core.ResponseMsg{QID: qid, Group: "g", State: dcountDense},
		core.ResponseMsg{QID: qid, Group: "g", State: quant},
		core.ResponseMsg{QID: qid, Group: "g", State: topkeys},
		core.ResponseMsg{QID: qid, Group: "g", State: union},
		core.ResponseMsg{QID: qid, Group: "g", State: collect},
		// The satellite shapes: a dense HLL and a spilled collect riding
		// inside keyed GroupedStates inside a coalesced BatchMsg, exactly
		// as a busy subtree root's epoch reports cross the wire.
		core.BatchMsg{Items: []any{
			core.EpochReportMsg{SID: qid, Group: "g", Epoch: 21, State: groupedCollect, Np: 3},
			core.EpochReportMsg{SID: qid, Group: "g", Epoch: 21, State: dcountDense, Np: 3},
		}},
		// A full epoch report numbered by its sender (an agent's numbers
		// start past its incarnation stamp), and the unchanged report
		// that later stands for it: no state, only that number.
		core.EpochReportMsg{SID: qid, Group: "g", Epoch: 22, State: grouped, Seq: 1<<60 + 7,
			Contributors: 9, Np: 5, Unknown: 1.5},
		core.EpochReportMsg{SID: qid, Group: "g", Epoch: 23, Since: 1<<60 + 7, Contributors: 9, Np: 5, Unknown: 1.5},
	}
	return samples
}

// markCovered records the type of every message m carries on tag 0 —
// m itself, its batch items and routed payloads — for the registry
// coverage check. Columnar messages and their states never ride gob.
func markCovered(covered map[reflect.Type]bool, m any) {
	switch v := m.(type) {
	case core.BatchMsg:
		for _, item := range v.Items {
			markCovered(covered, item)
		}
		return
	case pastry.RouteMsg:
		// The payload rides inside the route's gob blob.
		covered[reflect.TypeOf(v.Payload)] = true
	}
	if payload, err := core.AppendMessage(nil, m); err == nil && payload[0] == 0 {
		covered[reflect.TypeOf(m)] = true
	}
}

// assertGobTypesCovered fails for every type core registers for tag 0
// that the sweep never carried: a type added to the registry but not
// sampled fails CI instead of silently shipping untested.
func assertGobTypesCovered(t *testing.T, covered map[reflect.Type]bool) {
	t.Helper()
	for _, gt := range core.GobTypes() {
		if !covered[reflect.TypeOf(gt)] {
			t.Errorf("tag-0 type %T has no round-trip sample; add one to wireSamples", gt)
		}
	}
}

// envelope is the reference encoding the wire codec is checked against:
// one message behind an interface field, registered types and all, the
// way tag 0 of core.AppendMessage carries message bodies that have no
// columnar layout.
type envelope struct {
	FromAddr string
	Payload  any
}

// gobRoundTrip carries m through the reference gob envelope.
func gobRoundTrip(m any) (any, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&envelope{FromAddr: "x", Payload: m}); err != nil {
		return nil, fmt.Errorf("gob encode: %w", err)
	}
	var env envelope
	if err := gob.NewDecoder(&buf).Decode(&env); err != nil {
		return nil, fmt.Errorf("gob decode: %w", err)
	}
	return env.Payload, nil
}

// TestGobRoundTripAllWireTypes round-trips every wire sample that rides
// tag 0 through a gob encoder/decoder pair: every type core registers
// must be sampled and survive, or the tag-0 fallback loses it.
func TestGobRoundTripAllWireTypes(t *testing.T) {
	covered := make(map[reflect.Type]bool)
	for _, m := range wireSamples(t) {
		markCovered(covered, m)
		if payload, err := core.AppendMessage(nil, m); err != nil || payload[0] != 0 {
			continue
		}
		got, err := gobRoundTrip(m)
		if err != nil {
			t.Errorf("%T: %v", m, err)
			continue
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%T: round trip mismatch:\n got %#v\nwant %#v", m, got, m)
		}
	}
	assertGobTypesCovered(t, covered)
}

// TestWireTypesHaveMsgKind asserts that every envelope-level wire type
// labels itself for accounting: simnet.KindOf's %T fallback is cached
// per type, but hot-path messages should never rely on it — a new wire
// type without MsgKind would silently bill under its Go type name and
// dodge the "moara."/"overlay." accounting prefixes the experiments
// aggregate by. Aggregation states ride inside messages and are never
// counted individually, so only messages, batch items and routed
// payloads are checked.
func TestWireTypesHaveMsgKind(t *testing.T) {
	var check func(m any)
	check = func(m any) {
		if _, ok := m.(simnet.Kinder); !ok {
			t.Errorf("wire type %T does not implement MsgKind()", m)
		}
		switch v := m.(type) {
		case core.BatchMsg:
			for _, item := range v.Items {
				check(item)
			}
		case pastry.RouteMsg:
			check(v.Payload)
		}
	}
	for _, m := range wireSamples(t) {
		check(m)
	}
}
