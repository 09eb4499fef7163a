package moara

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/moara/moara/internal/core"
)

// TestTypedSentinels proves every branchable failure at the public
// boundary wraps its sentinel, so callers use errors.Is instead of
// message matching.
func TestTypedSentinels(t *testing.T) {
	c := NewSimCluster(16, WithSeed(1))
	ctx := context.Background()

	cases := []struct {
		name string
		err  func() error
		want error
	}{
		{"parse failure", func() error {
			_, err := c.Client(0).Query(ctx, "bogus query text")
			return err
		}, ErrParse},
		{"parse failure via wrapper", func() error {
			_, err := MonitorClient(ctx, c.Client(0), "also bogus", time.Second, 1, c.RunFor)
			return err
		}, ErrParse},
		{"standing query via Query", func() error {
			_, err := c.Client(0).Query(ctx, "avg(cpu) every 1s")
			return err
		}, ErrStandingOnly},
		{"one-shot via Subscribe", func() error {
			_, err := c.Client(0).Subscribe(ctx, "avg(cpu)", func(Sample) {})
			return err
		}, ErrNotStanding},
		{"one-shot via Subscribe wrapper", func() error {
			_, err := MonitorClient(ctx, c.Client(0), "avg(cpu)", 0, 1, c.RunFor)
			return err
		}, ErrNotStanding},
		{"unknown unsubscribe", func() error {
			a, err := ListenAgent("127.0.0.1:0", nil, AgentOptions{})
			if err != nil {
				return err
			}
			defer a.Close()
			return a.Unsubscribe(core.QueryID{})
		}, ErrUnknownSub},
		{"double unsubscribe", func() error {
			sub, err := c.Client(0).Subscribe(ctx, "count(*) every 1s", func(Sample) {})
			if err != nil {
				return err
			}
			if err := sub.Unsubscribe(); err != nil {
				return err
			}
			return sub.Unsubscribe()
		}, ErrUnknownSub},
		{"dead origin", func() error {
			c.Kill(3)
			defer c.Recover(3)
			_, err := c.Client(3).Query(ctx, "count(*)")
			return err
		}, ErrNoMembers},
		{"dead origin subscribe", func() error {
			c.Kill(4)
			defer c.Recover(4)
			_, err := c.Client(4).Subscribe(ctx, "count(*) every 1s", func(Sample) {})
			return err
		}, ErrNoMembers},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.err()
			if err == nil {
				t.Fatal("expected an error")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("errors.Is(%v, %v) = false", err, tc.want)
			}
		})
	}
}

func TestErrOverloadFromService(t *testing.T) {
	c := NewSimCluster(8, WithSeed(1))
	svc := NewService(c.Client(0), ServiceOptions{Rate: 1})
	ctx := WithTenant(context.Background(), "bench")
	if _, err := svc.Query(ctx, "count(*)"); err != nil {
		t.Fatalf("first request shed: %v", err)
	}
	_, err := svc.Query(ctx, "avg(cpu_x)")
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("err = %v, want ErrOverload", err)
	}
}
