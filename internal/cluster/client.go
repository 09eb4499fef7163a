package cluster

import (
	"context"
	"time"

	"github.com/moara/moara/internal/core"
)

// Client is node i's view of the cluster as a query client: queries
// originate at the node and pump the simulation until the answer
// arrives. It has the shape of moara.Client and of the service tier's
// backend, including the parsed-request install path and the virtual
// clock. A context is observed at call boundaries only: a wall-clock
// deadline cannot interrupt a pump in progress.
type Client struct {
	c    *Cluster
	node int
}

// Client returns node i's Client.
func (c *Cluster) Client(i int) *Client { return &Client{c: c, node: i} }

// Query parses and runs a one-shot query.
func (cl *Client) Query(ctx context.Context, text string) (core.Result, error) {
	req, err := core.ParseRequest(text)
	if err != nil {
		return core.Result{}, err
	}
	return cl.Execute(ctx, req)
}

// Execute runs a parsed one-shot request.
func (cl *Client) Execute(ctx context.Context, req core.Request) (core.Result, error) {
	if err := ctx.Err(); err != nil {
		return core.Result{}, err
	}
	return cl.c.Execute(cl.node, req)
}

// Subscribe parses and installs a standing query; see
// Cluster.Subscribe for fn's concurrency contract.
func (cl *Client) Subscribe(ctx context.Context, text string, fn func(core.Sample)) (core.Sub, error) {
	req, err := core.ParseRequest(text)
	if err != nil {
		return nil, err
	}
	return cl.SubscribeRequest(ctx, req, fn)
}

// SubscribeRequest installs a parsed standing request (the service
// front-end installs normalized requests this way).
func (cl *Client) SubscribeRequest(ctx context.Context, req core.Request, fn func(core.Sample)) (core.Sub, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	id, err := cl.c.Subscribe(cl.node, req, fn)
	if err != nil {
		return nil, err
	}
	return &sub{c: cl.c, node: cl.node, id: id}, nil
}

// Attrs is the node's attribute store.
func (cl *Client) Attrs() core.AttrStore { return cl.c.Nodes[cl.node].Store() }

// Now is the cluster's virtual clock; the service front-end picks it up
// so cache ages and admission decisions are deterministic.
func (cl *Client) Now() time.Duration { return cl.c.Net.Now() }

// sub is a standing-query handle on a simulated cluster.
type sub struct {
	c    *Cluster
	node int
	id   core.QueryID
}

func (s *sub) ID() core.QueryID   { return s.id }
func (s *sub) Unsubscribe() error { return s.c.Unsubscribe(s.node, s.id) }
