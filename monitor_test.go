package moara

import (
	"context"
	"testing"
	"time"
)

func TestMonitorPeriodicQueries(t *testing.T) {
	c := NewSimCluster(96, WithSeed(19))
	for i := 0; i < c.Size(); i++ {
		c.SetAttr(i, "g", Bool(i < 12))
	}
	samples, err := MonitorClient(context.Background(), c.Client(0), "count(*) where g = true", time.Second, 8, c.RunFor)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 8 {
		t.Fatalf("samples = %d", len(samples))
	}
	// The monitoring stream is a standing query: the first epochs are
	// marked ColdStart while the install disseminates and contributions
	// climb the tree; warm epochs must be exact.
	warm := 0
	for i, s := range samples {
		if s.Err != nil {
			t.Fatalf("round %d: %v", i, s.Err)
		}
		if s.ColdStart {
			if i > 0 && !samples[i-1].ColdStart {
				t.Fatalf("round %d cold after warm round %d", i, i-1)
			}
			continue
		}
		warm++
		if v, _ := s.Result.Agg.Value.AsInt(); v != 12 {
			t.Fatalf("round %d: count = %d", i, v)
		}
	}
	if warm < 3 {
		t.Fatalf("warm samples = %d, want >= 3 of 8", warm)
	}
	// Rounds are spaced by the epoch interval in virtual time.
	if gap := samples[2].At - samples[1].At; gap < time.Second-50*time.Millisecond {
		t.Fatalf("round gap = %v", gap)
	}
	// Steady monitoring is cheap: epoch re-aggregation must cost far
	// less than re-broadcasting a one-shot query per round.
	c.ResetMessageCounter()
	if _, err := MonitorClient(context.Background(), c.Client(0), "count(*) where g = true", time.Second, 4, c.RunFor); err != nil {
		t.Fatal(err)
	}
	perRound := float64(c.Messages()) / 4
	if perRound > float64(2*c.Size())/2 {
		t.Fatalf("steady monitoring costs %.0f msgs/round, want far below broadcast (%d)",
			perRound, 2*c.Size())
	}
}

func TestMonitorValidation(t *testing.T) {
	c := NewSimCluster(8)
	if _, err := MonitorClient(context.Background(), c.Client(0), "nonsense", time.Second, 1, c.RunFor); err == nil {
		t.Fatal("bad query should fail")
	}
	if _, err := MonitorClient(context.Background(), c.Client(0), "count(*)", 0, 1, c.RunFor); err == nil {
		t.Fatal("zero interval should fail")
	}
	if _, err := MonitorClient(context.Background(), c.Client(0), "count(*)", time.Second, 0, c.RunFor); err == nil {
		t.Fatal("zero rounds should fail")
	}
}

// TestMonitorClientOverAgent uses MonitorClient the documented way on a
// real deployment (pump=nil: wait on the wall clock), where the sample
// callback runs on the agent's goroutine rather than the caller's.
func TestMonitorClientOverAgent(t *testing.T) {
	a, err := ListenAgent("127.0.0.1:0", nil, AgentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ListenAgent("127.0.0.1:0", nil, AgentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	roster := []string{a.Addr(), b.Addr()}
	a.ApplyRoster(roster)
	b.ApplyRoster(roster)
	a.SetAttr("v", Int(3))
	b.SetAttr("v", Int(4))

	samples, err := MonitorClient(context.Background(), a, "sum(v)", 20*time.Millisecond, 12, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm := 0
	for _, s := range samples {
		if s.Err != nil {
			t.Fatalf("epoch %d: %v", s.Epoch, s.Err)
		}
		// Cold epochs may be partial while the pipeline fills.
		if s.ColdStart {
			continue
		}
		warm++
		if v, _ := s.Result.Agg.Value.AsInt(); v != 7 {
			t.Errorf("epoch %d: sum = %d, want 7", s.Epoch, v)
		}
	}
	if warm < 3 {
		t.Fatalf("warm samples = %d of %d, want >= 3", warm, len(samples))
	}
}
