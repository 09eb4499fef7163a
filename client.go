package moara

import (
	"context"

	"github.com/moara/moara/internal/cluster"
	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/service"
)

// Client is the unified query API every Moara deployment form
// implements: a per-node view of a simulated cluster
// (SimCluster.Client), a TCP agent (*Agent), and the query-service
// front-end (*Service) are interchangeable behind it. Shells,
// MonitorClient, and the examples are written against Client, so code
// moves between the simulator, a real deployment, and the service tier
// unchanged.
type Client interface {
	// Query parses and runs a one-shot query, blocking until the answer
	// arrives (simulated deployments drive virtual time internally).
	// Parse failures wrap ErrParse; requests with an `every` clause are
	// standing queries and fail with ErrStandingOnly.
	Query(ctx context.Context, text string) (Result, error)
	// Execute runs an already-parsed one-shot request.
	Execute(ctx context.Context, req Request) (Result, error)
	// Subscribe installs a standing query (the text needs an `every
	// <duration>` clause — ErrNotStanding otherwise); fn receives one
	// Sample per epoch until the returned Sub is unsubscribed. See each
	// implementation for fn's concurrency contract: on simulated
	// clusters fn runs on the event-loop goroutine and must not block
	// or call back into the cluster.
	Subscribe(ctx context.Context, text string, fn func(Sample)) (Sub, error)
	// Attrs is the client's local attribute store (the agent's
	// monitoring hook).
	Attrs() Attrs
}

// Sub is a live standing-query handle: its identifier plus teardown.
// Unsubscribing twice reports ErrUnknownSub.
type Sub = core.Sub

// Attrs is the attribute view a Client exposes.
type Attrs = core.AttrStore

// Typed sentinels for the public boundary: every error a caller can
// branch on wraps one of these (errors.Is), replacing message matching.
var (
	// ErrParse wraps query-language parse failures.
	ErrParse = core.ErrParse
	// ErrNoMembers marks a request from a node that cannot reach the
	// cluster (crashed origin, no live members).
	ErrNoMembers = core.ErrNoMembers
	// ErrNotStanding marks a Subscribe of a query with no `every` clause.
	ErrNotStanding = core.ErrNotStanding
	// ErrStandingOnly marks a Query/Execute of a standing query.
	ErrStandingOnly = core.ErrStandingOnly
	// ErrUnknownSub marks an Unsubscribe of an unknown subscription.
	ErrUnknownSub = core.ErrUnknownSub
	// ErrOverload marks a request shed by the query service's admission
	// control.
	ErrOverload = core.ErrOverload
)

// Client returns node i's view of the simulated cluster as a Client.
// Queries originate at node i and drive the simulation until the answer
// arrives (latency is reported in virtual time via Result.Stats); Attrs
// is node i's store. A standing query is disseminated once down the
// chosen cover's trees; thereafter every reached node re-aggregates
// in-tree each epoch and the callback receives one Sample per epoch — as
// virtual time is pumped with RunFor (or MonitorClient) — until the Sub
// is unsubscribed, which tears the subscription state down across the
// cluster (propagated down-tree, with an idle-timeout backstop for
// unreachable branches). Early samples are marked ColdStart while the
// contribution pipeline fills. The context
// passed to its methods is observed at call boundaries only — the
// simulation runs in virtual time, so a wall-clock deadline cannot
// interrupt a pump in progress.
//
// Subscribe callbacks run ON THE EVENT-LOOP GOROUTINE (the one pumping
// RunFor): they must not block and must not call back into the cluster
// or the samples' source node — hand samples to a channel, or front the
// client with NewService and a positive Buffer for a safe asynchronous
// hand-off.
func (s *SimCluster) Client(i int) Client { return s.c.Client(i) }

// Service is the query-service front-end (see internal/service): it
// normalizes requests, shares subsumed standing queries, caches
// one-shot results with explicit staleness stamps, and sheds overload
// per tenant. It implements Client, so it slots in anywhere a
// deployment does.
type Service = service.Service

// ServiceOptions configure NewService.
type ServiceOptions = service.Options

// NewService fronts any Client with the query-service layer. With the
// zero Options the service only shares subsumed standing queries; set
// CacheTTL to serve cached one-shots (stamped Result.Cached/Age), Rate
// and MaxInflight to shed overload with ErrOverload, and Buffer to
// decouple subscriber callbacks from the engine's delivery goroutine.
func NewService(inner Client, opts ServiceOptions) *Service {
	return service.New(inner, opts)
}

// WithTenant tags ctx with the tenant a request is billed to by the
// service's per-tenant admission control.
func WithTenant(ctx context.Context, tenant string) context.Context {
	return service.WithTenant(ctx, tenant)
}

// Interface conformance (compile-time): every deployment form is a
// Client.
var (
	_ Client = (*cluster.Client)(nil)
	_ Client = (*Agent)(nil)
	_ Client = (*Service)(nil)
)
