package main

import (
	"context"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/simnet"
	"github.com/moara/moara/internal/transport"
)

// Tracing lives entirely in the bench: spans are taken around the calls
// into each layer's public surface, kept in memory, and written out
// when the run ends. A nil *recorder records nothing, which is how the
// untraced run goes through the same wrappers.

// span is one timed interval. Spans of one operation share Op; Parent
// is the ID of the span that caused this one (0 for a root). N > 1 marks
// an aggregate: N calls inside the parent whose durations were summed
// (the simulator makes ~30k handler calls per epoch at N=10k; one span
// each would dwarf the run).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n,omitempty"`
}

type recorder struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	nextID atomic.Int64
	nextOp atomic.Int64
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) newOp() int64 {
	if r == nil {
		return 0
	}
	return r.nextOp.Add(1)
}

// reserve hands out a span ID before the span ends, so children can name
// their parent.
func (r *recorder) reserve() int64 {
	if r == nil {
		return 0
	}
	return r.nextID.Add(1)
}

func (r *recorder) add(id, parent, op int64, name string, start, end time.Time, n int64) {
	if r == nil {
		return
	}
	if id == 0 {
		id = r.reserve()
	}
	s := span{ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0)), N: n}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// total sums the durations of every span with the given name, in
// seconds, and counts them.
func (r *recorder) total(name string) (seconds float64, count int) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if s.Name == name {
			seconds += float64(s.End-s.Start) / 1e9
			count++
		}
	}
	return seconds, count
}

func (r *recorder) writeFile(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opCtx carries the current operation and its open span through the
// service into the backend wrapper.
type opCtxKey struct{}

type opCtx struct{ op, parent int64 }

func withOp(ctx context.Context, op, parent int64) context.Context {
	return context.WithValue(ctx, opCtxKey{}, opCtx{op, parent})
}

// tracedBackend is the service.Backend the bench hands to the service
// tier: the agent behind a seam where spans are taken. The service's
// own span minus the backend span inside it is the service's self time;
// the span around the callback the service passes down is its fan-out.
// Both traced and untraced runs go through it (rec is nil untraced), so
// the two runs differ by the recording only. rec is switched on while
// agent goroutines are delivering samples, hence atomic.
type tracedBackend struct {
	agent *transport.Node
	rec   atomic.Pointer[recorder]
}

func (b *tracedBackend) Query(ctx context.Context, text string) (core.Result, error) {
	req, err := core.ParseRequest(text)
	if err != nil {
		return core.Result{}, err
	}
	return b.Execute(ctx, req)
}

func (b *tracedBackend) Execute(ctx context.Context, req core.Request) (core.Result, error) {
	rec := b.rec.Load()
	if rec == nil {
		return b.agent.Execute(ctx, req)
	}
	oc, _ := ctx.Value(opCtxKey{}).(opCtx)
	start := time.Now()
	res, err := b.agent.Execute(ctx, req)
	rec.add(0, oc.parent, oc.op, "backend.execute", start, time.Now(), 0)
	return res, err
}

func (b *tracedBackend) Subscribe(ctx context.Context, text string, fn func(core.Sample)) (core.Sub, error) {
	req, err := core.ParseRequest(text)
	if err != nil {
		return nil, err
	}
	return b.SubscribeRequest(ctx, req, fn)
}

// SubscribeRequest keeps the service on its parsed-request fast path,
// as the bare agent would.
func (b *tracedBackend) SubscribeRequest(ctx context.Context, req core.Request, fn func(core.Sample)) (core.Sub, error) {
	return b.agent.SubscribeRequest(ctx, req, func(s core.Sample) {
		rec := b.rec.Load()
		if rec == nil {
			fn(s)
			return
		}
		start := time.Now()
		fn(s)
		rec.add(0, 0, rec.newOp(), "service.fanout", start, time.Now(), 0)
	})
}

func (b *tracedBackend) Attrs() core.AttrStore { return b.agent.Attrs() }

// Now gives the service the agent's clock, as the bare agent would.
func (b *tracedBackend) Now() time.Duration { return b.agent.Now() }

// tracedHandler sits between the simulator and a core node and times
// every core.Node.Handle call. The driver reads and resets the totals
// around each RunFor/RunWhile, which yields one aggregate child span
// per operation. The sharded engine may call handlers of different
// shards from different goroutines, so the totals are atomic.
type tracedHandler struct {
	node *core.Node
	acc  *handleAcc
}

type handleAcc struct {
	on    atomic.Bool
	ns    atomic.Int64
	calls atomic.Int64
}

var _ simnet.Handler = (*tracedHandler)(nil)

func (h *tracedHandler) Handle(from ids.ID, m any) {
	if !h.acc.on.Load() {
		h.node.Handle(from, m)
		return
	}
	t0 := time.Now()
	h.node.Handle(from, m)
	h.acc.ns.Add(int64(time.Since(t0)))
	h.acc.calls.Add(1)
}

// take returns and clears the accumulated handler time and call count.
func (a *handleAcc) take() (time.Duration, int64) {
	return time.Duration(a.ns.Swap(0)), a.calls.Swap(0)
}
