package transport

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/moara/moara/internal/cluster"
	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/pastry"
)

// TestTappedTrafficRoundTrips takes its wire samples from traffic, not
// from a hand list: a simulated cluster runs heartbeats, a kill
// (obituaries and a slot repair), a join, a composite one-shot (cost
// probes) and a grouped standing query with its cancel, and every
// tapped message, batch item and routed payload must encode, decode
// with no trailing bytes and re-encode to the same bytes. Every type
// core registers for tag 0 must cross the tap.
func TestTappedTrafficRoundTrips(t *testing.T) {
	seen := make(map[reflect.Type]bool)
	failed := make(map[reflect.Type]bool)
	var check func(m any)
	check = func(m any) {
		typ := reflect.TypeOf(m)
		if typ.Kind() == reflect.Pointer {
			typ = typ.Elem()
		}
		payload, err := core.AppendMessage(nil, m)
		if err == nil {
			var back any
			var rest []byte
			if back, rest, err = core.ReadMessage(payload); err == nil && len(rest) != 0 {
				err = fmt.Errorf("%d trailing bytes after decode", len(rest))
			}
			if err == nil {
				if again, aerr := core.AppendMessage(nil, back); aerr != nil || !bytes.Equal(again, payload) {
					err = fmt.Errorf("decode and re-encode gives other bytes (err %v)", aerr)
				}
			}
		}
		if err != nil {
			if !failed[typ] {
				failed[typ] = true
				t.Errorf("%T: %v", m, err)
			}
			return
		}
		if payload[0] == 0 {
			seen[typ] = true
		}
		switch v := m.(type) {
		case *core.BatchMsg:
			for _, item := range v.Items {
				check(item)
			}
		case pastry.RouteMsg:
			// The payload rides inside the route's gob blob.
			seen[reflect.TypeOf(v.Payload)] = true
			check(v.Payload)
		}
	}

	const period = 200 * time.Millisecond
	c := cluster.New(cluster.Options{
		N: 16, Seed: 7,
		Tap:     func(_, _ ids.ID, m any, _ time.Duration) { check(m) },
		Node:    core.Config{ChildTimeout: 500 * time.Millisecond},
		Overlay: pastry.Config{HeartbeatEvery: period},
	})
	for i, n := range c.Nodes {
		n.Store().SetInt("a", int64(i%3))
		n.Store().SetInt("b", int64(i%5))
		n.Store().SetString("slice", fmt.Sprintf("s%d", i%4))
		n.Store().SetFloat("load", float64(i))
	}
	// Two candidate covers: the front end probes both trees' costs.
	if _, err := c.ExecuteText(0, "count(*) where a = 1 and b = 2"); err != nil {
		t.Fatal(err)
	}
	req, err := core.ParseRequest(fmt.Sprintf("avg(load) group by slice where a = 1 every %v", period))
	if err != nil {
		t.Fatal(err)
	}
	sid, err := c.Subscribe(1, req, func(core.Sample) {})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(5 * period)
	if err := c.Unsubscribe(1, sid); err != nil {
		t.Fatal(err)
	}
	c.RunFor(2 * period)
	c.Kill(5)
	c.RunFor(8 * period)
	c.AddNode()
	c.RunFor(4 * period)

	for _, gt := range core.GobTypes() {
		if !seen[reflect.TypeOf(gt)] {
			t.Errorf("tag-0 type %T never crossed the tap", gt)
		}
	}
}
