// Package transport runs Moara nodes over real TCP, turning the
// event-driven core into a deployable agent. Identifiers derive from
// listen addresses (id = MD5(addr)), so a static roster of addresses
// fully determines the overlay; routing state is bootstrapped from the
// roster the same way the simulator's oracle does.
//
// Concurrency model: the core node remains single-threaded — every
// entry point (incoming messages, timers, local queries) serializes
// through one mutex, preserving the simulator's execution semantics.
package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/moara/moara/internal/aggregate"
	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/pastry"
	"github.com/moara/moara/internal/simnet"
	"github.com/moara/moara/internal/value"
)

// RegisterGob does nothing: core registers the types tag 0 carries
// itself (core.GobTypes). It stays for callers written against the
// transport's earlier registry.
func RegisterGob() {}

// IDOf derives a node's overlay identifier from its listen address.
func IDOf(addr string) ids.ID { return ids.FromKey(addr) }

// Options configure a TCP node.
type Options struct {
	// Node configures the Moara core.
	Node core.Config
}

const (
	// dialTimeout bounds outgoing connection attempts.
	dialTimeout = 5 * time.Second
	// redialBackoff is how long a peer that failed to dial stays
	// negative-cached before another dial is attempted. Without it,
	// every message to a dead neighbor re-dialed synchronously under
	// dialTimeout — an epoch burst toward a dead peer stacked up dial
	// attempts instead of failing fast.
	redialBackoff = time.Second
)

// Node is one Moara agent listening on a TCP address.
type Node struct {
	addr   string
	id     ids.ID
	roster map[ids.ID]string

	mu    sync.Mutex
	core  *core.Node
	start time.Time
	rng   *rand.Rand

	ln       net.Listener
	connMu   sync.Mutex
	conns    map[string]*outConn
	accepted map[net.Conn]bool
	dialFail map[string]time.Time

	msgsIn, msgsOut   atomic.Uint64
	bytesIn, bytesOut atomic.Uint64
	decodeErrs        atomic.Uint64
	encodeErrs        atomic.Uint64
	dials, dialErrs   atomic.Uint64
	dialsSuppressed   atomic.Uint64

	closed  chan struct{}
	closeMu sync.Once
	wg      sync.WaitGroup
}

// outConn is one cached outgoing connection. Frames go out unbuffered,
// one Write each, so the connection holds no writer buffer beyond the
// frame scratch.
type outConn struct {
	mu sync.Mutex
	// buf is the frame scratch, reused under mu. A fresh connection's
	// buf holds its header, which rides the first frame's Write.
	buf []byte
	c   countingConn
}

// Listen starts an agent on addr with the given peer roster (all
// cluster addresses, including addr itself). The overlay is
// bootstrapped from the roster and sends no heartbeats, so a crashed
// peer is never declared dead.
func Listen(addr string, roster []string, opts Options) (*Node, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	// The caller may pass ":0"; use the resolved address as identity.
	resolved := ln.Addr().String()
	n := &Node{
		addr:     resolved,
		id:       IDOf(resolved),
		roster:   make(map[ids.ID]string, len(roster)),
		start:    time.Now(),
		rng:      rand.New(rand.NewSource(int64(time.Now().UnixNano()))),
		ln:       ln,
		conns:    make(map[string]*outConn),
		accepted: make(map[net.Conn]bool),
		dialFail: make(map[string]time.Time),
		closed:   make(chan struct{}),
	}
	n.roster[n.id] = resolved
	n.core = core.NewNode(nodeEnv{n}, opts.Node, pastry.Config{})
	n.ApplyRoster(roster)
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the resolved listen address.
func (n *Node) Addr() string { return n.addr }

// ID returns the node's overlay identifier.
func (n *Node) ID() ids.ID { return n.id }

// Do runs fn with exclusive access to the core node — the only safe
// way to touch the attribute store or issue queries.
func (n *Node) Do(fn func(c *core.Node)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	fn(n.core)
}

// ApplyRoster installs peers (listen addresses) into the address book
// and overlay routing state.
func (n *Node) ApplyRoster(roster []string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, addr := range roster {
		if addr == "" || addr == n.addr {
			continue
		}
		id := IDOf(addr)
		n.roster[id] = addr
		n.core.Overlay().Install(id)
	}
}

// SetAttr writes an attribute on the local agent.
func (n *Node) SetAttr(name string, v value.Value) {
	n.Do(func(c *core.Node) { c.Store().Set(name, v) })
}

// Attrs returns the agent's attribute store behind a mutex-holding
// wrapper: the raw store, like the rest of the core, is driven from one
// goroutine, so the wrapper serializes each access through Do.
func (n *Node) Attrs() core.AttrStore { return lockedStore{n} }

// lockedStore adapts the agent's single-threaded attribute store to the
// concurrent AttrStore contract.
type lockedStore struct{ n *Node }

func (ls lockedStore) Set(name string, v value.Value) {
	ls.n.Do(func(c *core.Node) { c.Store().Set(name, v) })
}

func (ls lockedStore) Get(name string) value.Value {
	var v value.Value
	ls.n.Do(func(c *core.Node) { v = c.Store().Get(name) })
	return v
}

// Now is the agent's monotonic clock: elapsed wall time since the node
// started. The query-service front-end picks it up for cache ages and
// admission refills.
func (n *Node) Now() time.Duration { return time.Since(n.start) }

// Query parses and runs a one-shot query from this node, blocking
// until the result arrives, ctx is done, or the node closes. Parse
// failures wrap core.ErrParse; standing queries (`every` clause) fail
// with core.ErrStandingOnly.
func (n *Node) Query(ctx context.Context, text string) (core.Result, error) {
	req, err := core.ParseRequest(text)
	if err != nil {
		return core.Result{}, err
	}
	return n.Execute(ctx, req)
}

// Execute runs a parsed one-shot request, blocking until completion,
// ctx cancellation, or node shutdown.
func (n *Node) Execute(ctx context.Context, req core.Request) (core.Result, error) {
	type outcome struct {
		res core.Result
		err error
	}
	ch := make(chan outcome, 1)
	n.Do(func(c *core.Node) {
		c.Execute(req, func(r core.Result, e error) {
			ch <- outcome{r, e}
		})
	})
	select {
	case out := <-ch:
		return out.res, out.err
	case <-ctx.Done():
		return core.Result{}, ctx.Err()
	case <-n.closed:
		return core.Result{}, errors.New("transport: node closed")
	}
}

// Subscribe installs a standing query (the text needs an `every`
// clause — core.ErrNotStanding otherwise) from this agent; fn receives
// one sample per epoch until the returned handle unsubscribes. fn runs
// on the agent's serialized core goroutine and must not call back into
// the node — hand samples off to a channel, or front the agent with the
// query service's buffered fan-out (internal/service, Buffer > 0).
func (n *Node) Subscribe(ctx context.Context, text string, fn func(core.Sample)) (core.Sub, error) {
	req, err := core.ParseRequest(text)
	if err != nil {
		return nil, err
	}
	return n.SubscribeRequest(ctx, req, fn)
}

// SubscribeRequest is the parsed-request install path (the query
// service uses it to install normalized requests directly).
func (n *Node) SubscribeRequest(ctx context.Context, req core.Request, fn func(core.Sample)) (core.Sub, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var (
		id  core.QueryID
		err error
	)
	n.Do(func(c *core.Node) { id, err = c.Subscribe(req, fn) })
	if err != nil {
		return nil, err
	}
	return &agentSub{n: n, id: id}, nil
}

// Unsubscribe cancels a standing query installed from this agent;
// unknown (or already-cancelled) IDs report core.ErrUnknownSub.
func (n *Node) Unsubscribe(id core.QueryID) error {
	var err error
	n.Do(func(c *core.Node) { err = c.Unsubscribe(id) })
	return err
}

// agentSub is a standing-query handle on a TCP agent.
type agentSub struct {
	n  *Node
	id core.QueryID
}

func (a *agentSub) ID() core.QueryID   { return a.id }
func (a *agentSub) Unsubscribe() error { return a.n.Unsubscribe(a.id) }

// Close shuts the agent down and waits for its goroutines. The core is
// closed before the connections so its final outbox flush (queued
// coalesced messages, e.g. a cancel cascade) can ride already-open
// connections to remote peers, best-effort: racing conn teardown may
// still drop it, no new connections are dialed for it, and loopback
// flushes are discarded (the node stops handling its own messages the
// moment closed is signalled). Peers that miss the flush fall back to
// the SubTTL GC / ChildTimeout paths, exactly as with any lost packet.
func (n *Node) Close() error {
	n.closeMu.Do(func() {
		close(n.closed)
		n.ln.Close()
		n.mu.Lock()
		n.core.Close()
		n.mu.Unlock()
		n.connMu.Lock()
		for _, oc := range n.conns {
			oc.c.Close()
		}
		for c := range n.accepted {
			c.Close()
		}
		n.connMu.Unlock()
	})
	n.wg.Wait()
	return nil
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			select {
			case <-n.closed:
				return
			default:
				continue
			}
		}
		n.connMu.Lock()
		n.accepted[conn] = true
		n.connMu.Unlock()
		n.wg.Add(1)
		go n.readLoop(conn)
	}
}

func (n *Node) readLoop(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		conn.Close()
		n.connMu.Lock()
		delete(n.accepted, conn)
		n.connMu.Unlock()
	}()
	// Default-size buffer: readFrame reads payloads larger than it
	// straight into its scratch.
	br := bufio.NewReader(countingConn{Conn: conn, in: &n.bytesIn, out: &n.bytesOut})
	// Frames are self-delimiting, so a payload that fails to decode is
	// counted and skipped without killing the connection; a bad
	// connection header or framing-level corruption (oversized or
	// truncated frames) tears it down, counted.
	fromAddr, err := readConnHeader(br)
	if err != nil {
		n.countDecodeErr(err)
		return
	}
	from := IDOf(fromAddr)
	var scratch []byte
	for {
		payload, err := readFrame(br, &scratch)
		if err != nil {
			n.countDecodeErr(err)
			return
		}
		m, rest, err := core.ReadMessage(payload)
		if err != nil || len(rest) != 0 {
			if err == nil {
				err = fmt.Errorf("transport: %d trailing bytes in frame", len(rest))
			}
			n.countDecodeErr(err)
			continue
		}
		if !n.dispatch(from, fromAddr, m) {
			return
		}
	}
}

// dispatch hands one inbound message to the core, installing unknown
// senders into the roster first. The closed check runs under the core
// lock BEFORE dispatch — Close signals closed before taking the lock,
// so a closing node can no longer process one extra message between
// Close and connection teardown.
func (n *Node) dispatch(from ids.ID, fromAddr string, m any) bool {
	n.mu.Lock()
	select {
	case <-n.closed:
		n.mu.Unlock()
		return false
	default:
	}
	if _, known := n.roster[from]; !known {
		n.roster[from] = fromAddr
		n.core.Overlay().Install(from)
	}
	n.core.Handle(from, m)
	n.mu.Unlock()
	n.msgsIn.Add(1)
	return true
}

// countDecodeErr records an inbound decode failure, ignoring the
// ordinary ways a healthy connection ends (clean EOF, teardown during
// shutdown) so the counter means "wire bug", not "peer left".
func (n *Node) countDecodeErr(err error) {
	if err == nil || errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
		return
	}
	select {
	case <-n.closed:
		return
	default:
	}
	n.decodeErrs.Add(1)
}

// send transmits one message, dialing (and caching) connections lazily,
// as one frame in one Write. Failures are silent, like UDP loss; Moara's
// timeouts handle them. The message's state holds go back either way.
func (n *Node) send(toAddr string, m any) {
	oc, err := n.conn(toAddr)
	if err != nil {
		releaseHolds(m)
		return
	}
	oc.mu.Lock()
	frame, encErr := appendFrame(oc.buf, m)
	if encErr == nil {
		oc.buf = frame[:0]
		_, err = oc.c.Write(frame)
	}
	oc.mu.Unlock()
	releaseHolds(m)
	switch {
	case encErr != nil:
		// A type tag 0 does not carry: no byte hit the wire, so the
		// connection is still clean.
		n.encodeErrs.Add(1)
	case err != nil:
		oc.c.Close()
		n.connMu.Lock()
		if n.conns[toAddr] == oc {
			delete(n.conns, toAddr)
		}
		n.connMu.Unlock()
	default:
		n.msgsOut.Add(1)
	}
}

// releaseHolds hands back the aggregate-state holds a message carries
// (see aggregate.Recycle) and a pooled message (core.Release): the peer
// decodes a copy of its own, so once the frame is written or the message
// dropped, nothing reads the sender's states or message through it again.
func releaseHolds(m any) {
	switch m := m.(type) {
	case *core.EpochReportMsg:
		aggregate.Recycle(m.State)
	case core.SampleMsg:
		aggregate.Recycle(m.State)
	case *core.ResponseMsg:
		aggregate.Recycle(m.State)
	case *core.BatchMsg:
		for _, item := range m.Items {
			releaseHolds(item)
		}
	}
	core.Release(m)
}

func (n *Node) conn(addr string) (*outConn, error) {
	n.connMu.Lock()
	if oc, ok := n.conns[addr]; ok {
		n.connMu.Unlock()
		return oc, nil
	}
	// Negative dial cache: a peer that just failed to dial is skipped
	// until its backoff expires, so a dead neighbor costs one timed-out
	// dial per backoff window instead of one per message.
	if until, ok := n.dialFail[addr]; ok {
		if time.Since(until) < redialBackoff {
			n.connMu.Unlock()
			n.dialsSuppressed.Add(1)
			return nil, errors.New("transport: peer in dial backoff")
		}
		delete(n.dialFail, addr)
	}
	n.connMu.Unlock()
	// Cached connections stay usable through shutdown (Close's final
	// outbox flush rides them best-effort), but a closing node must not
	// dial fresh ones.
	select {
	case <-n.closed:
		return nil, errors.New("transport: node closed")
	default:
	}
	n.dials.Add(1)
	c, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		n.dialErrs.Add(1)
		n.connMu.Lock()
		n.dialFail[addr] = time.Now()
		n.connMu.Unlock()
		return nil, err
	}
	oc := &outConn{
		buf: appendConnHeader(nil, n.addr),
		c:   countingConn{Conn: c, in: &n.bytesIn, out: &n.bytesOut},
	}
	n.connMu.Lock()
	defer n.connMu.Unlock()
	select {
	case <-n.closed:
		// Close's teardown (also under connMu) may already have swept
		// the cache; caching now would leak the descriptor.
		c.Close()
		return nil, errors.New("transport: node closed")
	default:
	}
	if existing, ok := n.conns[addr]; ok {
		c.Close()
		return existing, nil
	}
	delete(n.dialFail, addr)
	n.conns[addr] = oc
	return oc, nil
}

// nodeEnv adapts a transport Node to the simnet.Env interface the core
// is written against.
type nodeEnv struct {
	n *Node
}

var _ simnet.Env = nodeEnv{}

// Self returns the node's identifier.
func (e nodeEnv) Self() ids.ID { return e.n.id }

// Send transmits m to the node with identifier to, resolving the
// address through the roster. Unknown destinations are dropped. Send
// takes over m and the state holds it carries: loopback delivery hands
// them to the core, and every other path hands them back once the frame
// is written or the message dropped.
func (e nodeEnv) Send(to ids.ID, m any) {
	if to == e.n.id {
		// Loopback: handle asynchronously to avoid lock recursion.
		go func() {
			e.n.mu.Lock()
			defer e.n.mu.Unlock()
			select {
			case <-e.n.closed:
				releaseHolds(m)
				return
			default:
			}
			e.n.core.Handle(to, m)
		}()
		return
	}
	addr, ok := e.n.roster[to]
	if !ok {
		releaseHolds(m)
		return
	}
	// Network I/O happens off the core lock.
	go e.n.send(addr, m)
}

// Arm schedules fn on the real clock, serialized with the core, and
// records the handle in t. The slot keeps its timer across arms: the
// first Arm on a slot makes it, every later one re-arms it in place.
func (e nodeEnv) Arm(d time.Duration, fn func(), t *simnet.Timer) {
	t.Stop()
	a, ok := t.Ext().(*agentTimer)
	if !ok {
		a = &agentTimer{n: e.n}
		t.SetStop(a)
	}
	a.fn, a.due, a.armed = fn, time.Now().Add(d), true
	if ok {
		a.at.Reset(d)
	} else {
		a.at = time.AfterFunc(d, a.fire)
	}
}

// agentTimer is a timer slot's timer on the real clock. Like a simulator
// timer, it runs fn once per arming, never before that arming's deadline,
// never once stopped under the core lock, and never once the node is
// closed. A callback of an earlier arming that was already waiting for
// the lock when the slot was stopped or re-armed therefore does nothing:
// it finds the slot disarmed, or its deadline still ahead.
type agentTimer struct {
	n  *Node
	at *time.Timer
	// Guarded by n.mu: this arming's callback and deadline, and whether
	// it is still to run.
	fn    func()
	due   time.Time
	armed bool
}

func (a *agentTimer) fire() {
	a.n.mu.Lock()
	defer a.n.mu.Unlock()
	select {
	case <-a.n.closed:
		return
	default:
	}
	if a.armed && !time.Now().Before(a.due) {
		a.armed = false
		a.fn()
	}
}

// Stop runs under the core lock, as the core's timer calls do.
func (a *agentTimer) Stop() bool {
	a.armed = false
	return a.at.Stop()
}

// Now returns the elapsed wall-clock time since the node started.
func (e nodeEnv) Now() time.Duration { return time.Since(e.n.start) }

// Rand returns the node's random source.
func (e nodeEnv) Rand() *rand.Rand { return e.n.rng }

// Incarnation is the wall-clock nanosecond stamp taken at Listen. The
// core numbers its queries from it, so an agent restarted on the same
// address — and so under the same ID — never reissues a query ID its
// peers still remember from the previous run.
func (e nodeEnv) Incarnation() uint64 { return uint64(e.n.start.UnixNano()) }
