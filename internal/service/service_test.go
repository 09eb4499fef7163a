package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/ids"
)

// fakeBackend is a controllable Backend + requestSubscriber + clocked:
// it counts executions and installs, lets tests advance the clock by
// hand, and can deliver samples into live subscriptions.
type fakeBackend struct {
	mu       sync.Mutex
	clock    time.Duration
	execs    int
	execGate chan struct{} // when non-nil, Execute blocks until closed
	execErr  error
	subErr   error
	nextNum  uint64
	live     map[uint64]func(core.Sample) // installed streams by QueryID.Num
	cancels  int
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{live: make(map[uint64]func(core.Sample))}
}

func (f *fakeBackend) Now() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.clock
}

func (f *fakeBackend) advance(d time.Duration) {
	f.mu.Lock()
	f.clock += d
	f.mu.Unlock()
}

func (f *fakeBackend) Attrs() core.AttrStore { return nil }

func (f *fakeBackend) Query(ctx context.Context, text string) (core.Result, error) {
	req, err := core.ParseRequest(text)
	if err != nil {
		return core.Result{}, err
	}
	return f.Execute(ctx, req)
}

func (f *fakeBackend) Execute(ctx context.Context, req core.Request) (core.Result, error) {
	f.mu.Lock()
	f.execs++
	n := f.execs
	gate := f.execGate
	err := f.execErr
	f.mu.Unlock()
	if gate != nil {
		<-gate
	}
	if err != nil {
		return core.Result{}, err
	}
	// The answer encodes which execution produced it, so cache hits are
	// distinguishable from re-executions.
	return core.Result{Contributors: int64(n)}, nil
}

func (f *fakeBackend) Subscribe(ctx context.Context, text string, fn func(core.Sample)) (core.Sub, error) {
	req, err := core.ParseRequest(text)
	if err != nil {
		return nil, err
	}
	return f.SubscribeRequest(ctx, req, fn)
}

func (f *fakeBackend) SubscribeRequest(ctx context.Context, req core.Request, fn func(core.Sample)) (core.Sub, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.subErr != nil {
		return nil, f.subErr
	}
	f.nextNum++
	num := f.nextNum
	f.live[num] = fn
	return &fakeSub{f: f, num: num}, nil
}

// emit delivers one sample to every live stream, as the engine would on
// an epoch boundary.
func (f *fakeBackend) emit(s core.Sample) {
	f.mu.Lock()
	fns := make([]func(core.Sample), 0, len(f.live))
	for _, fn := range f.live {
		fns = append(fns, fn)
	}
	f.mu.Unlock()
	for _, fn := range fns {
		fn(s)
	}
}

func (f *fakeBackend) installed() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.live)
}

func (f *fakeBackend) cancelled() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cancels
}

type fakeSub struct {
	f   *fakeBackend
	num uint64
}

func (s *fakeSub) ID() core.QueryID { return core.QueryID{Origin: ids.FromKey("fake"), Num: s.num} }

func (s *fakeSub) Unsubscribe() error {
	s.f.mu.Lock()
	defer s.f.mu.Unlock()
	if _, ok := s.f.live[s.num]; !ok {
		return fmt.Errorf("%w: %d", core.ErrUnknownSub, s.num)
	}
	delete(s.f.live, s.num)
	s.f.cancels++
	return nil
}

var _ Backend = (*fakeBackend)(nil)
var _ requestSubscriber = (*fakeBackend)(nil)
var _ clocked = (*fakeBackend)(nil)

func sample(epoch uint64, v int64) core.Sample {
	return core.Sample{Epoch: epoch, Result: core.Result{Contributors: v}}
}

func TestCacheHitWithinTTL(t *testing.T) {
	fb := newFakeBackend()
	s := New(fb, Options{CacheTTL: 10 * time.Second})
	ctx := context.Background()

	r1, err := s.Query(ctx, "avg(cpu)")
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached || r1.Age != 0 {
		t.Fatalf("fresh result stamped cached: %+v", r1)
	}
	fb.advance(3 * time.Second)
	r2, err := s.Query(ctx, "avg( cpu )") // syntactic variant, same key
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Fatal("expected cache hit")
	}
	if r2.Age != 3*time.Second {
		t.Fatalf("Age = %v, want 3s", r2.Age)
	}
	if r2.Contributors != r1.Contributors {
		t.Fatalf("cache returned a different answer: %d vs %d", r2.Contributors, r1.Contributors)
	}
	if fb.execs != 1 {
		t.Fatalf("backend executed %d times, want 1", fb.execs)
	}

	// Past the TTL the entry expires and the backend runs again.
	fb.advance(8 * time.Second)
	r3, err := s.Query(ctx, "avg(cpu)")
	if err != nil {
		t.Fatal(err)
	}
	if r3.Cached {
		t.Fatal("expired entry served from cache")
	}
	if fb.execs != 2 {
		t.Fatalf("backend executed %d times, want 2", fb.execs)
	}
	st := s.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 2 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	fb := newFakeBackend()
	s := New(fb, Options{CacheTTL: time.Hour})
	s.cache = newResultCache(2) // small enough for three queries to evict
	ctx := context.Background()

	for _, q := range []string{"avg(a)", "avg(b)", "avg(c)"} { // a evicted
		if _, err := s.Query(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.CacheLen != 2 {
		t.Fatalf("cache len = %d, want 2", st.CacheLen)
	}
	execs := fb.execs
	if res, _ := s.Query(ctx, "avg(b)"); !res.Cached {
		t.Fatal("avg(b) should still be cached")
	}
	if res, _ := s.Query(ctx, "avg(a)"); res.Cached {
		t.Fatal("avg(a) should have been evicted")
	}
	if fb.execs != execs+1 {
		t.Fatalf("backend executed %d extra times, want 1", fb.execs-execs)
	}
}

func TestSingleFlight(t *testing.T) {
	fb := newFakeBackend()
	gate := make(chan struct{})
	fb.execGate = gate
	s := New(fb, Options{CacheTTL: time.Hour})
	ctx := context.Background()

	const callers = 8
	var wg sync.WaitGroup
	results := make([]core.Result, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Query(ctx, "sum(load)")
		}(i)
	}
	// Wait until every other caller has joined the one execution in
	// flight (each counts itself before it blocks), then release it. A
	// gate opened earlier lets a late caller find the answer in the
	// result cache instead.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().SingleFlight != callers-1 {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d callers joined the flight", s.Stats().SingleFlight, callers-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i].Contributors != results[0].Contributors {
			t.Fatalf("caller %d got a different answer", i)
		}
	}
	if fb.execs != 1 {
		t.Fatalf("backend executed %d times, want 1 (single-flight)", fb.execs)
	}
	if st := s.Stats(); st.SingleFlight == 0 {
		t.Fatal("no single-flight piggybacks recorded")
	}
}

func TestSubsumptionSharesOneInstall(t *testing.T) {
	fb := newFakeBackend()
	s := New(fb, Options{})
	ctx := context.Background()

	var gotA, gotB, gotC []core.Sample
	subA, err := s.Subscribe(ctx, "avg(cpu) every 1s", func(sm core.Sample) { gotA = append(gotA, sm) })
	if err != nil {
		t.Fatal(err)
	}
	// Same normalized form, different spelling: attaches, no new install.
	subB, err := s.Subscribe(ctx, "avg( cpu ) every 1000ms", func(sm core.Sample) { gotB = append(gotB, sm) })
	if err != nil {
		t.Fatal(err)
	}
	// Different period: its own install.
	subC, err := s.Subscribe(ctx, "avg(cpu) every 2s", func(sm core.Sample) { gotC = append(gotC, sm) })
	if err != nil {
		t.Fatal(err)
	}
	if fb.installed() != 2 {
		t.Fatalf("backend has %d installs, want 2", fb.installed())
	}
	st := s.Stats()
	if st.Installs != 2 || st.Attaches != 1 || st.LiveStreams != 2 || st.Subscribers != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if subA.ID() != subB.ID() {
		t.Fatal("subsumed subscribers should share the engine subscription ID")
	}
	if subA.ID() == subC.ID() {
		t.Fatal("distinct streams must not share an ID")
	}

	fb.emit(sample(1, 42))
	if len(gotA) != 1 || len(gotB) != 1 {
		t.Fatalf("fan-out missed a subscriber: A=%d B=%d", len(gotA), len(gotB))
	}
	if len(gotC) != 1 {
		t.Fatalf("C got %d samples, want 1 (fake emits to all streams)", len(gotC))
	}

	// First detach keeps the stream alive; last detach tears it down.
	if err := subA.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	if fb.cancelled() != 0 {
		t.Fatal("stream torn down while a subscriber remains")
	}
	fb.emit(sample(2, 43))
	if len(gotA) != 1 {
		t.Fatal("detached subscriber still receiving")
	}
	if len(gotB) != 2 {
		t.Fatal("remaining subscriber lost the stream")
	}
	if err := subB.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	if fb.cancelled() != 1 {
		t.Fatalf("cancels = %d, want 1 after last detach", fb.cancelled())
	}
	if err := subC.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	if fb.installed() != 0 {
		t.Fatalf("%d streams left installed", fb.installed())
	}
	// Double unsubscribe is a typed error.
	if err := subB.Unsubscribe(); !errors.Is(err, core.ErrUnknownSub) {
		t.Fatalf("double unsubscribe: %v, want ErrUnknownSub", err)
	}

	// A fresh subscribe after teardown reinstalls.
	sub2, err := s.Subscribe(ctx, "avg(cpu) every 1s", func(core.Sample) {})
	if err != nil {
		t.Fatal(err)
	}
	if fb.installed() != 1 {
		t.Fatalf("reinstall: %d streams, want 1", fb.installed())
	}
	if err := sub2.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
}

func TestSketchSpellingsShareOneInstall(t *testing.T) {
	fb := newFakeBackend()
	s := New(fb, Options{})
	ctx := context.Background()

	// Each pair spells the same canonical sketch request two ways; the
	// second spelling must attach to the first install, not create one.
	pairs := [][2]string{
		{"quantile(cpu, 0.99) every 2s", "p99(cpu) every 2s"},
		{"quantile(load, 0.999) every 1s", "p99.9(load) every 1s"},
		{"dcount(os) every 2s", "countdistinct(os) every 2s"},
		{"topkeys(os, 5) every 2s", "topkeys5(os) every 2s"},
	}
	var subs []core.Sub
	for _, p := range pairs {
		a, err := s.Subscribe(ctx, p[0], func(core.Sample) {})
		if err != nil {
			t.Fatalf("subscribe %q: %v", p[0], err)
		}
		b, err := s.Subscribe(ctx, p[1], func(core.Sample) {})
		if err != nil {
			t.Fatalf("subscribe %q: %v", p[1], err)
		}
		if a.ID() != b.ID() {
			t.Errorf("%q and %q did not share a stream", p[0], p[1])
		}
		subs = append(subs, a, b)
	}
	if fb.installed() != len(pairs) {
		t.Fatalf("backend has %d installs, want %d", fb.installed(), len(pairs))
	}
	st := s.Stats()
	if st.Installs != int64(len(pairs)) || st.Attaches != int64(len(pairs)) {
		t.Fatalf("stats = %+v", st)
	}
	// A different rank on the same attribute is its own stream.
	c, err := s.Subscribe(ctx, "quantile(cpu, 0.5) every 2s", func(core.Sample) {})
	if err != nil {
		t.Fatal(err)
	}
	if fb.installed() != len(pairs)+1 {
		t.Fatalf("p50 reused an install: %d, want %d", fb.installed(), len(pairs)+1)
	}
	subs = append(subs, c)
	for _, sub := range subs {
		if err := sub.Unsubscribe(); err != nil {
			t.Fatal(err)
		}
	}
	if fb.installed() != 0 {
		t.Fatalf("%d streams left installed", fb.installed())
	}
}

func TestSubscribeInstallFailurePropagates(t *testing.T) {
	fb := newFakeBackend()
	fb.subErr = errors.New("install failed")
	s := New(fb, Options{})
	if _, err := s.Subscribe(context.Background(), "avg(cpu) every 1s", func(core.Sample) {}); err == nil {
		t.Fatal("expected install failure")
	}
	if st := s.Stats(); st.LiveStreams != 0 || st.Subscribers != 0 {
		t.Fatalf("failed install left state: %+v", st)
	}
	// The key must not be poisoned: a later subscribe retries.
	fb.subErr = nil
	sub, err := s.Subscribe(context.Background(), "avg(cpu) every 1s", func(core.Sample) {})
	if err != nil {
		t.Fatal(err)
	}
	sub.Unsubscribe()
}

func TestSubscribeRejectsOneShot(t *testing.T) {
	s := New(newFakeBackend(), Options{})
	if _, err := s.Subscribe(context.Background(), "avg(cpu)", func(core.Sample) {}); !errors.Is(err, core.ErrNotStanding) {
		t.Fatalf("err = %v, want ErrNotStanding", err)
	}
}

func TestExecuteRejectsStanding(t *testing.T) {
	s := New(newFakeBackend(), Options{})
	if _, err := s.Query(context.Background(), "avg(cpu) every 1s"); !errors.Is(err, core.ErrStandingOnly) {
		t.Fatalf("err = %v, want ErrStandingOnly", err)
	}
}

// TestAdmissionDeterministic drives the token bucket on the fake's
// manual clock: with Rate=2/s (a bucket of 2), a fixed request schedule
// produces exactly the same admit/shed pattern every run.
func TestAdmissionDeterministic(t *testing.T) {
	run := func() []bool {
		fb := newFakeBackend()
		s := New(fb, Options{Rate: 2})
		ctx := WithTenant(context.Background(), "t1")
		var admitted []bool
		// Schedule: 4 requests at t=0, then one each 250ms.
		for i := 0; i < 4; i++ {
			_, err := s.Query(ctx, "avg(cpu)")
			admitted = append(admitted, err == nil)
		}
		for i := 0; i < 4; i++ {
			fb.advance(250 * time.Millisecond)
			_, err := s.Query(ctx, "avg(cpu)")
			admitted = append(admitted, err == nil)
		}
		return admitted
	}
	first := run()
	// A bucket of 2 admits the first two, sheds the next two; at 2/s one
	// token accrues per 500ms, so every other 250ms probe is admitted.
	want := []bool{true, true, false, false, false, true, false, true}
	if len(first) != len(want) {
		t.Fatalf("got %d outcomes", len(first))
	}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("outcome[%d] = %v, want %v (full: %v)", i, first[i], want[i], first)
		}
	}
	for run := 0; run < 3; run++ {
		if got := fmt.Sprint(first); got != fmt.Sprint(want) {
			t.Fatalf("run %d diverged: %v", run, got)
		}
	}
}

func TestAdmissionPerTenant(t *testing.T) {
	fb := newFakeBackend()
	s := New(fb, Options{Rate: 1})
	a := WithTenant(context.Background(), "a")
	b := WithTenant(context.Background(), "b")
	if _, err := s.Query(a, "avg(cpu)"); err != nil {
		t.Fatalf("tenant a first request shed: %v", err)
	}
	if _, err := s.Query(a, "avg(cpu)"); !errors.Is(err, core.ErrOverload) {
		t.Fatalf("tenant a second request: %v, want ErrOverload", err)
	}
	// Tenant b has its own bucket.
	if _, err := s.Query(b, "avg(cpu)"); err != nil {
		t.Fatalf("tenant b shed by a's bucket: %v", err)
	}
	if st := s.Stats(); st.Shed != 1 {
		t.Fatalf("Shed = %d, want 1", st.Shed)
	}
}

func TestMaxInflightSheds(t *testing.T) {
	fb := newFakeBackend()
	gate := make(chan struct{})
	fb.execGate = gate
	s := New(fb, Options{MaxInflight: 1})
	ctx := context.Background()

	done := make(chan error, 1)
	go func() {
		_, err := s.Query(ctx, "avg(a)")
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		fb.mu.Lock()
		n := fb.execs
		fb.mu.Unlock()
		if n >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no execution started")
		}
		time.Sleep(time.Millisecond)
	}
	// A different query (no single-flight piggyback) exceeds the cap.
	if _, err := s.Query(ctx, "avg(b)"); !errors.Is(err, core.ErrOverload) {
		t.Fatalf("err = %v, want ErrOverload", err)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Capacity is released after completion.
	if _, err := s.Query(ctx, "avg(c)"); err != nil {
		t.Fatalf("post-completion query shed: %v", err)
	}
}

// TestBufferedFanOutSlowCallback proves a slow subscriber cannot stall
// delivery: with Buffer > 0 the engine-side deliver returns immediately
// and the slow consumer sees a thinned stream. Run with -race in CI.
func TestBufferedFanOutSlowCallback(t *testing.T) {
	fb := newFakeBackend()
	s := New(fb, Options{Buffer: 2})
	block := make(chan struct{})
	first := make(chan struct{})
	var once sync.Once
	var slowGot atomic.Int64
	sub, err := s.Subscribe(context.Background(), "avg(cpu) every 1s", func(core.Sample) {
		slowGot.Add(1)
		once.Do(func() { close(first) })
		<-block // wedge the dispatcher, not the engine
	})
	if err != nil {
		t.Fatal(err)
	}
	// Land one sample in the wedged callback first, so the flood below
	// runs entirely against a stalled consumer.
	fb.emit(sample(1, 0))
	select {
	case <-first:
	case <-time.After(10 * time.Second):
		t.Fatal("dispatcher never delivered the first sample")
	}
	donemit := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			fb.emit(sample(uint64(i+2), int64(i)))
		}
		close(donemit)
	}()
	select {
	case <-donemit:
	case <-time.After(10 * time.Second):
		t.Fatal("deliver blocked behind a slow subscriber")
	}
	close(block)
	if err := sub.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	if g := slowGot.Load(); g < 1 || g > 101 {
		t.Fatalf("slow subscriber processed %d samples", g)
	}
}

// TestChurnSoak churns Q=500 subscribers over a handful of normalized
// forms while samples stream, exercising attach/detach/deliver races.
// Run with -race in CI (the service-layer soak job).
func TestChurnSoak(t *testing.T) {
	fb := newFakeBackend()
	s := New(fb, Options{Buffer: 4})
	ctx := context.Background()
	forms := []string{
		"avg(cpu) every 1s", "avg(mem) every 1s", "count(*) every 2s",
		"sum(load) where apache = true every 1s",
	}
	stop := make(chan struct{})
	var emitter sync.WaitGroup
	emitter.Add(1)
	go func() {
		defer emitter.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				fb.emit(sample(uint64(i+1), int64(i)))
			}
		}
	}()

	const Q = 500
	var wg sync.WaitGroup
	var errCount atomic.Int64
	for i := 0; i < Q; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var n atomic.Int64
			sub, err := s.Subscribe(ctx, forms[i%len(forms)], func(core.Sample) { n.Add(1) })
			if err != nil {
				errCount.Add(1)
				return
			}
			if err := sub.Unsubscribe(); err != nil {
				errCount.Add(1)
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	emitter.Wait()
	if errCount.Load() != 0 {
		t.Fatalf("%d subscribe/unsubscribe errors under churn", errCount.Load())
	}
	if st := s.Stats(); st.LiveStreams != 0 || st.Subscribers != 0 {
		t.Fatalf("state leaked after churn: %+v", st)
	}
	if fb.installed() != 0 {
		t.Fatalf("%d backend streams leaked", fb.installed())
	}
	if st := s.Stats(); st.Installs+st.Attaches != Q {
		t.Fatalf("installs+attaches = %d, want %d", st.Installs+st.Attaches, Q)
	}
}

// TestTextOnlyBackendInstall drops the fake's parsed-request fast path
// behind a wrapper, forcing the FormatRequest render path.
func TestTextOnlyBackendInstall(t *testing.T) {
	fb := newFakeBackend()
	s := New(textOnly{fb}, Options{})
	var got []core.Sample
	sub, err := s.Subscribe(context.Background(), "avg( cpu )  where  a = 1 and (b = 2 and c = 3) every 1s",
		func(sm core.Sample) { got = append(got, sm) })
	if err != nil {
		t.Fatal(err)
	}
	if fb.installed() != 1 {
		t.Fatalf("installed = %d", fb.installed())
	}
	fb.emit(sample(1, 7))
	if len(got) != 1 {
		t.Fatalf("got %d samples", len(got))
	}
	if err := sub.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
}

// textOnly hides the fake's SubscribeRequest/Now, presenting the
// minimal Backend shape.
type textOnly struct{ fb *fakeBackend }

func (w textOnly) Query(ctx context.Context, text string) (core.Result, error) {
	return w.fb.Query(ctx, text)
}
func (w textOnly) Execute(ctx context.Context, req core.Request) (core.Result, error) {
	return w.fb.Execute(ctx, req)
}
func (w textOnly) Subscribe(ctx context.Context, text string, fn func(core.Sample)) (core.Sub, error) {
	return w.fb.Subscribe(ctx, text, fn)
}
func (w textOnly) Attrs() core.AttrStore { return w.fb.Attrs() }
