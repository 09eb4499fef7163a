// Package service implements the Moara query-service front-end: a
// layer between callers and the cluster that makes Q ≫ N workloads
// affordable. "Millions of users" means the query count dwarfs the node
// count, and most of those queries are the same query; the service
// exploits that three ways:
//
//   - Subsumption sharing: an incoming standing query whose normalized
//     form (predicate canonicalized, clauses trimmed, same period grid)
//     matches a live one attaches to the existing sample stream instead
//     of installing a second tree. One in-tree subscription serves any
//     number of subscribers; the install is refcounted and torn down on
//     the last unsubscribe.
//   - Result caching: one-shot answers are cached in a TTL'd LRU keyed
//     by the normalized request. A cached answer is stamped
//     (Result.Cached, Result.Age) so callers can see — and bound — the
//     staleness they are accepting. Concurrent identical one-shots are
//     single-flighted: one execution, every caller gets the answer.
//   - Admission control: a per-tenant token bucket plus a queue-depth
//     cap shed excess load with a typed ErrOverload instead of melting
//     the cluster. Sheds are deterministic for a deterministic clock.
//
// The service implements the same client shape as the deployments it
// fronts (the root package's moara.Client), so callers cannot tell —
// except by the stamps and the message bill — whether they talk to the
// engine or the service.
package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/moara/moara/internal/core"
)

// Backend is the inner client the service fronts. It is the same shape
// as the root package's moara.Client, so any deployment form plugs in.
type Backend interface {
	Query(ctx context.Context, text string) (core.Result, error)
	Execute(ctx context.Context, req core.Request) (core.Result, error)
	Subscribe(ctx context.Context, text string, fn func(core.Sample)) (core.Sub, error)
	Attrs() core.AttrStore
}

// requestSubscriber is the optional fast path a backend can provide to
// install an already-parsed (normalized) request directly, bypassing
// text re-rendering. The simulated-cluster client and the TCP agent
// both provide it.
type requestSubscriber interface {
	SubscribeRequest(ctx context.Context, req core.Request, fn func(core.Sample)) (core.Sub, error)
}

// clocked is the optional clock a backend can provide; the simulated
// cluster exposes its virtual clock this way, which is what makes
// cache ages and admission decisions deterministic under a seed.
type clocked interface {
	Now() time.Duration
}

// Options configure a Service. The zero value is a pass-through with
// subsumption sharing only: no caching, no admission, synchronous
// fan-out.
type Options struct {
	// CacheTTL bounds the staleness of served one-shot answers; 0
	// disables the result cache entirely.
	CacheTTL time.Duration
	// CacheSize caps the cache entry count (LRU eviction; default 1024
	// when caching is enabled).
	CacheSize int
	// Rate is the per-tenant admission rate in requests/second; 0
	// disables the token bucket.
	Rate float64
	// Burst is the token bucket capacity (default max(Rate, 1)).
	Burst float64
	// MaxInflight caps concurrently executing (non-cached) one-shots;
	// excess requests are shed with ErrOverload. 0 means unlimited.
	MaxInflight int
	// Buffer switches subscription fan-out to asynchronous hand-off: a
	// per-subscriber buffered channel of this depth, drained by a
	// dispatcher goroutine, so a slow subscriber callback can never
	// stall the engine's event loop. When the buffer is full, samples
	// are dropped oldest-first for that subscriber (monitoring streams
	// prefer fresh data over complete history). 0 keeps synchronous
	// fan-out, which preserves the simulator's determinism.
	Buffer int
}

// Service is the query-service front-end. It is safe for concurrent
// use; all state is guarded by one mutex, and backend calls are made
// outside it.
type Service struct {
	inner Backend
	opts  Options
	// now is the service clock (cache ages, bucket refill): the
	// backend's own clock when it has one, else wall time since New.
	now func() time.Duration

	mu       sync.Mutex
	shared   map[string]*sharedSub
	cache    *resultCache
	flights  map[string]*flight
	inflight int
	tenants  map[string]*bucket
	stats    Stats
}

// Stats is a point-in-time snapshot of the service's behavior.
type Stats struct {
	// Installs counts in-tree subscriptions the service created.
	Installs int64
	// Attaches counts subscribers served by an existing stream
	// (subsumption hits).
	Attaches int64
	// LiveStreams is the number of distinct normalized standing forms
	// currently installed.
	LiveStreams int
	// Subscribers is the total live subscriber count across streams.
	Subscribers int
	// CacheHits / CacheMisses count one-shot cache outcomes; CacheLen
	// is the current entry count.
	CacheHits   int64
	CacheMisses int64
	CacheLen    int
	// SingleFlight counts one-shots that piggybacked on an identical
	// in-flight execution.
	SingleFlight int64
	// Shed counts requests rejected with ErrOverload.
	Shed int64
}

// New builds a service front-end over inner.
func New(inner Backend, opts Options) *Service {
	if opts.CacheTTL > 0 && opts.CacheSize <= 0 {
		opts.CacheSize = 1024
	}
	if opts.Rate > 0 && opts.Burst <= 0 {
		opts.Burst = opts.Rate
		if opts.Burst < 1 {
			opts.Burst = 1
		}
	}
	s := &Service{
		inner:   inner,
		opts:    opts,
		shared:  make(map[string]*sharedSub),
		flights: make(map[string]*flight),
		tenants: make(map[string]*bucket),
	}
	if opts.CacheTTL > 0 {
		s.cache = newResultCache(opts.CacheSize)
	}
	if c, ok := inner.(clocked); ok {
		s.now = c.Now
	} else {
		start := time.Now()
		s.now = func() time.Duration { return time.Since(start) }
	}
	return s
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.LiveStreams = len(s.shared)
	for _, sh := range s.shared {
		st.Subscribers += len(sh.subs)
	}
	if s.cache != nil {
		st.CacheLen = s.cache.len()
	}
	return st
}

// Attrs exposes the backend's attribute store.
func (s *Service) Attrs() core.AttrStore { return s.inner.Attrs() }

// Query parses and runs a one-shot query through the cache and
// admission layers. Parse failures wrap core.ErrParse.
func (s *Service) Query(ctx context.Context, text string) (core.Result, error) {
	req, err := core.ParseRequest(text)
	if err != nil {
		return core.Result{}, err
	}
	return s.Execute(ctx, req)
}

// Execute runs a parsed one-shot request: admission, then the result
// cache, then a single-flighted execution on the backend. Requests
// carrying an `every` period are standing queries and are rejected with
// core.ErrStandingOnly — run them via Subscribe.
func (s *Service) Execute(ctx context.Context, req core.Request) (core.Result, error) {
	if req.Period > 0 {
		return core.Result{}, fmt.Errorf("%w (every %v)", core.ErrStandingOnly, req.Period)
	}
	if err := ctx.Err(); err != nil {
		return core.Result{}, err
	}
	if err := s.admit(ctx); err != nil {
		return core.Result{}, err
	}
	nreq := core.NormalizeRequest(req)
	key := core.CanonicalKey(nreq)

	s.mu.Lock()
	if s.cache != nil {
		if res, ok := s.cache.get(key, s.now(), s.opts.CacheTTL); ok {
			s.stats.CacheHits++
			s.mu.Unlock()
			return res, nil
		}
		s.stats.CacheMisses++
	}
	if fl, ok := s.flights[key]; ok {
		// An identical request is executing right now: piggyback on it
		// instead of issuing a duplicate dissemination.
		s.stats.SingleFlight++
		s.mu.Unlock()
		select {
		case <-fl.done:
			return fl.res, fl.err
		case <-ctx.Done():
			return core.Result{}, ctx.Err()
		}
	}
	if s.opts.MaxInflight > 0 && s.inflight >= s.opts.MaxInflight {
		s.stats.Shed++
		s.mu.Unlock()
		return core.Result{}, fmt.Errorf("%w: %d executions in flight", core.ErrOverload, s.opts.MaxInflight)
	}
	fl := &flight{done: make(chan struct{})}
	s.flights[key] = fl
	s.inflight++
	s.mu.Unlock()

	res, err := s.inner.Execute(ctx, nreq)

	s.mu.Lock()
	fl.res, fl.err = res, err
	close(fl.done)
	delete(s.flights, key)
	s.inflight--
	if s.cache != nil && err == nil {
		s.cache.put(key, res, s.now())
	}
	s.mu.Unlock()
	return res, err
}

// Subscribe installs (or joins) a standing query. The request text is
// parsed and normalized; if a live stream with the same normalized form
// exists, the new subscriber fans out from it — no new tree state
// anywhere in the cluster. Otherwise the service installs the
// normalized request on the backend once and becomes the stream's
// owner. The returned Sub detaches this subscriber; the in-tree
// subscription is torn down when the last subscriber detaches.
//
// fn's execution context depends on Options.Buffer: with Buffer == 0 it
// runs synchronously on the engine's delivery goroutine (the simulated
// cluster's event loop — it must not block or call back into the
// service); with Buffer > 0 it runs on a per-subscriber dispatcher
// goroutine and may be arbitrarily slow, at the price of dropped
// samples once the buffer fills.
func (s *Service) Subscribe(ctx context.Context, text string, fn func(core.Sample)) (core.Sub, error) {
	req, err := core.ParseRequest(text)
	if err != nil {
		return nil, err
	}
	return s.SubscribeRequest(ctx, req, fn)
}

// SubscribeRequest is Subscribe for an already-parsed request.
func (s *Service) SubscribeRequest(ctx context.Context, req core.Request, fn func(core.Sample)) (core.Sub, error) {
	if req.Period <= 0 {
		return nil, fmt.Errorf("%w: standing query needs a period (every clause)", core.ErrNotStanding)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := s.admit(ctx); err != nil {
		return nil, err
	}
	nreq := core.NormalizeRequest(req)
	key := core.CanonicalKey(nreq)

	s.mu.Lock()
	sh, ok := s.shared[key]
	if ok {
		sub := sh.attach(s, fn)
		s.stats.Attaches++
		ready := sh.ready
		s.mu.Unlock()
		// The stream may still be installing (another goroutine's
		// Subscribe is mid-flight on the backend): wait for the verdict
		// so a failed install propagates to every joiner.
		<-ready
		if sh.installErr != nil {
			return nil, sh.installErr
		}
		return sub, nil
	}
	sh = &sharedSub{key: key, lock: &s.mu, ready: make(chan struct{})}
	sub := sh.attach(s, fn)
	s.shared[key] = sh
	s.stats.Installs++
	s.mu.Unlock()

	inner, err := s.installInner(ctx, nreq, sh)

	s.mu.Lock()
	if err != nil {
		delete(s.shared, key)
		sh.installErr = err
		sh.stopAllLocked()
		close(sh.ready)
		s.mu.Unlock()
		return nil, err
	}
	sh.inner = inner
	close(sh.ready)
	s.mu.Unlock()
	return sub, nil
}

// installInner installs the normalized request on the backend, using
// the parsed-request fast path when available.
func (s *Service) installInner(ctx context.Context, nreq core.Request, sh *sharedSub) (core.Sub, error) {
	if rs, ok := s.inner.(requestSubscriber); ok {
		return rs.SubscribeRequest(ctx, nreq, sh.deliver)
	}
	// Text-only backend: re-render the normalized request. The rendered
	// form re-parses to the same normalized request by construction.
	return s.inner.Subscribe(ctx, core.FormatRequest(nreq), sh.deliver)
}

// sharedSub is one live normalized standing form: a single in-tree
// subscription fanned out to any number of subscribers.
type sharedSub struct {
	key   string
	lock  *sync.Mutex // the owning service's mutex
	inner core.Sub
	ready chan struct{}
	// installErr is the backend install failure, if any; set before
	// ready closes.
	installErr error
	// subs holds the live subscribers in attach order — fan-out order
	// is deterministic, which keeps simulated runs seed-reproducible.
	subs   []*subscriber
	nextID uint64
}

// subscriber is one caller's attachment to a shared stream.
type subscriber struct {
	id uint64
	fn func(core.Sample)
	// ch/stop implement the buffered hand-off mode; nil in synchronous
	// mode.
	ch   chan core.Sample
	stop chan struct{}
}

// attach adds a subscriber (caller holds s.mu).
func (sh *sharedSub) attach(s *Service, fn func(core.Sample)) *svcSub {
	sh.nextID++
	sub := &subscriber{id: sh.nextID, fn: fn}
	if s.opts.Buffer > 0 {
		sub.ch = make(chan core.Sample, s.opts.Buffer)
		sub.stop = make(chan struct{})
		go sub.dispatch()
	}
	sh.subs = append(sh.subs, sub)
	return &svcSub{svc: s, sh: sh, sub: sub}
}

// deliver fans one engine sample out to every subscriber. It runs on
// the engine's delivery goroutine; in synchronous mode the subscriber
// callbacks run inline, in buffered mode delivery never blocks — a
// full buffer drops the subscriber's oldest queued sample first, so a
// stalled consumer degrades to a thinned stream of fresh samples.
func (sh *sharedSub) deliver(sample core.Sample) {
	// Snapshot under the service lock so fan-out races cleanly with
	// attach/detach; invoke outside it so a callback cannot deadlock
	// against Subscribe/Unsubscribe on other goroutines.
	sh.mu().Lock()
	targets := make([]*subscriber, len(sh.subs))
	copy(targets, sh.subs)
	sh.mu().Unlock()
	for _, sub := range targets {
		if sub.ch == nil {
			sub.fn(sample)
			continue
		}
		for {
			select {
			case sub.ch <- sample:
			default:
				select {
				case <-sub.ch: // evict oldest, retry
					continue
				default:
				}
			}
			break
		}
	}
}

func (sub *subscriber) dispatch() {
	for {
		select {
		case <-sub.stop:
			return
		case s := <-sub.ch:
			sub.fn(s)
		}
	}
}

// stopAllLocked stops every subscriber's dispatcher (install failure
// teardown; caller holds the service lock).
func (sh *sharedSub) stopAllLocked() {
	for _, sub := range sh.subs {
		if sub.stop != nil {
			close(sub.stop)
		}
	}
	sh.subs = nil
}

// svcSub is the handle returned to one subscriber.
type svcSub struct {
	svc  *Service
	sh   *sharedSub
	sub  *subscriber
	dead bool
}

// ID returns the underlying engine subscription's identifier. Subsumed
// subscribers share it: they are, by design, the same subscription.
func (h *svcSub) ID() core.QueryID {
	<-h.sh.ready
	if h.sh.inner == nil {
		return core.QueryID{}
	}
	return h.sh.inner.ID()
}

// Unsubscribe detaches this subscriber; the last detach tears down the
// in-tree subscription. A second Unsubscribe reports ErrUnknownSub.
func (h *svcSub) Unsubscribe() error {
	s := h.svc
	<-h.sh.ready
	s.mu.Lock()
	if h.dead {
		s.mu.Unlock()
		return fmt.Errorf("%w: subscriber already detached", core.ErrUnknownSub)
	}
	h.dead = true
	sh := h.sh
	for i, sub := range sh.subs {
		if sub == h.sub {
			sh.subs = append(sh.subs[:i], sh.subs[i+1:]...)
			break
		}
	}
	if h.sub.stop != nil {
		close(h.sub.stop)
	}
	last := len(sh.subs) == 0
	if last {
		delete(s.shared, sh.key)
	}
	inner := sh.inner
	s.mu.Unlock()
	if last && inner != nil {
		return inner.Unsubscribe()
	}
	return nil
}

// mu is the owning service's lock (stashed at creation).
func (sh *sharedSub) mu() *sync.Mutex { return sh.lock }
