// Package moara is the public API of the Moara group-based querying
// system (Ko et al., MIDDLEWARE 2008): scalable one-shot aggregation
// queries over dynamically defined groups of nodes.
//
// A query is a triple (query-attribute, aggregation function,
// group-predicate), optionally keyed by a `group by` attribute, written
// in a small query language:
//
//	count(*) where service_x = true
//	avg(mem_util) where service_x = true and apache = true
//	avg(mem_util) group by slice where apache = true
//	top3(load) where (slice = cs101 or slice = cs202) and cpu_util < 90
//
// Alongside the paper's exact aggregates (sum, count, min, max, avg,
// std, top-k, enum), a mergeable-sketch family answers with bounded
// per-node state and a tested error bound: dcount (HyperLogLog distinct
// count, ±2.3%), quantile(x, q) / pNN(x) (KLL-style rank quantiles),
// topkeys(x, k) (Misra-Gries heavy hitters), and union / collect
// (capped distinct-value and per-node lists):
//
//	dcount(os)
//	p99(latency) group by slice
//	quantile(load, 0.5) where apache = true
//	topkeys(os, 4)
//	union(slice)
//
// A grouped query partitions the answer by each node's value of the
// group-by attribute — "avg(mem_util) per slice" — and still costs one
// tree dissemination: per-key sub-aggregates merge hop-by-hop inside
// the tree rather than as G separate queries. Per-key answers arrive in
// Result.Groups.
//
// An `every <duration>` clause makes the query a standing query:
//
//	avg(load) where group = db every 2s
//	avg(mem_util) group by slice every 500ms
//
// Installed once via Subscribe, a standing query re-aggregates in-tree
// every epoch — each subscribed node pushes one report per epoch to its
// tree parent, and the root streams one Sample per epoch back — so
// steady monitoring costs about half of re-running the one-shot query
// each round, with no per-round dissemination at all. MonitorClient is
// built on it.
//
// Every deployment form is queried through one interface, Client
// (Query, Execute, Subscribe, Attrs). Two deployment forms are provided:
//
//   - SimCluster: an in-process simulated deployment on a virtual
//     clock — instant to boot, deterministic, scales to tens of
//     thousands of nodes; SimCluster.Client(i) is node i's Client.
//     This is what the examples and the paper's experiment harness
//     (cmd/moara-bench) use.
//   - Agent: a real TCP daemon (one per host) forming a Moara overlay
//     from a static roster, itself a Client; see cmd/moara-agent.
//
// NewService fronts either with the query-service tier, again a Client.
package moara

import (
	"fmt"
	"sort"
	"time"

	"github.com/moara/moara/internal/cluster"
	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/simnet"
	"github.com/moara/moara/internal/transport"
	"github.com/moara/moara/internal/value"
)

// Request is a parsed query (see ParseRequest).
type Request = core.Request

// Result is a completed query with planning statistics.
type Result = core.Result

// Value is a dynamically typed attribute value.
type Value = value.Value

// Int builds an integer attribute value.
func Int(v int64) Value { return value.Int(v) }

// Float builds a floating-point attribute value.
func Float(v float64) Value { return value.Float(v) }

// Str builds a string attribute value.
func Str(v string) Value { return value.Str(v) }

// Bool builds a boolean attribute value.
func Bool(v bool) Value { return value.Bool(v) }

// ParseRequest parses query-language text (README "Query language"),
// e.g. "avg(mem_util) group by slice where apache = true". An every
// clause makes the request a standing query (run it with Subscribe,
// not Query/Execute).
func ParseRequest(text string) (Request, error) {
	return core.ParseRequest(text)
}

// Option configures a SimCluster.
type Option func(*options)

type options struct {
	seed      int64
	cl        cluster.Options
	nodeCfg   core.Config
	bootstrap cluster.Bootstrap
	// model sets the network model once every option is applied, so it
	// sees the final seed.
	model func(cluster.Options) cluster.Options
}

// WithSeed fixes the cluster's random seed (default 1).
func WithSeed(seed int64) Option {
	return func(o *options) { o.seed = seed }
}

// WithThreshold sets the separate-query-plane threshold (§5 of the
// paper; default 2, 1 disables the SQP).
func WithThreshold(t int) Option {
	return func(o *options) { o.nodeCfg.Threshold = t }
}

// WithNodeConfig replaces the whole per-node configuration.
func WithNodeConfig(cfg core.Config) Option {
	return func(o *options) { o.nodeCfg = cfg }
}

// WithCoalesceWindow sets the per-destination outbox flush window: all
// messages a node emits to the same neighbor within the window ship as
// one wire-level batch. The default (0) flushes every event-loop tick,
// coalescing concurrent queries' traffic with no added latency; a
// positive window also merges across bursts at up to that much extra
// latency per hop; a negative window disables batching entirely.
func WithCoalesceWindow(d time.Duration) Option {
	return func(o *options) { o.nodeCfg.CoalesceWindow = d }
}

// WithLANModel simulates a datacenter LAN with per-message processing
// cost and shared CPUs, like the paper's Emulab testbed.
func WithLANModel() Option {
	return func(o *options) { o.model = cluster.Options.Emulab }
}

// WithWANModel simulates a PlanetLab-style wide-area network with
// heavy-tailed latencies and intermittently slow straggler nodes.
// Child and query timeouts are raised to tolerate stragglers (the
// paper runs its PlanetLab experiments without query timeouts).
func WithWANModel() Option {
	return func(o *options) {
		o.model = cluster.Options.PlanetLab
		if o.nodeCfg.ChildTimeout == 0 {
			o.nodeCfg.ChildTimeout = 90 * time.Second
		}
		if o.nodeCfg.QueryTimeout == 0 {
			o.nodeCfg.QueryTimeout = 240 * time.Second
		}
	}
}

// WithProtocolBootstrap joins nodes through the real Pastry handshake
// instead of oracle-filled routing tables.
func WithProtocolBootstrap() Option {
	return func(o *options) { o.bootstrap = cluster.BootstrapProtocol }
}

// WithShards partitions the simulated nodes across k event heaps that
// drain conservative-lookahead windows in parallel. It is a speed
// setting only: a seed gives the same run at any shard or worker count.
// k >= 2 is incompatible with the per-node CPU queueing of WithLANModel
// and WithWANModel (SerializeProc; WithLANModel also shares machines):
// NewSimCluster panics on the combination. k <= 1 runs every node on
// one heap.
func WithShards(k int) Option {
	return func(o *options) { o.cl.Shards = k }
}

// WithPairwiseModel simulates a wide-area network with stable, hashed
// per-pair one-way delays (no per-message jitter draws): each ordered
// node pair gets base + hash in [0, spread). Its positive base gives
// the scheduler its lookahead horizon.
func WithPairwiseModel(base, spread time.Duration) Option {
	return func(o *options) {
		o.model = func(c cluster.Options) cluster.Options {
			c.Latency = simnet.Pairwise(base, spread, c.Seed)
			c.ProcDelay = 300 * time.Microsecond
			return c
		}
	}
}

// SimCluster is an in-process simulated Moara deployment.
type SimCluster struct {
	c *cluster.Cluster
}

// NewSimCluster boots n simulated nodes, ready to query.
func NewSimCluster(n int, opts ...Option) *SimCluster {
	return &SimCluster{c: cluster.New(clusterOptions(n, opts))}
}

// clusterOptions applies opts in order, then builds the latency model
// from the final seed, so WithSeed may come before or after the model.
func clusterOptions(n int, opts []Option) cluster.Options {
	o := options{seed: 1}
	for _, fn := range opts {
		fn(&o)
	}
	o.cl.N = n
	o.cl.Seed = o.seed
	o.cl.Node = o.nodeCfg
	o.cl.Bootstrap = o.bootstrap
	if o.model != nil {
		o.cl = o.model(o.cl)
	}
	return o.cl
}

// Size returns the number of nodes.
func (s *SimCluster) Size() int { return len(s.c.Nodes) }

// SetAttr writes an attribute on node i's agent (the monitoring hook
// of §3.1).
func (s *SimCluster) SetAttr(i int, name string, v Value) {
	s.c.Nodes[i].Store().Set(name, v)
}

// Attr reads node i's attribute.
func (s *SimCluster) Attr(i int, name string) Value {
	return s.c.Nodes[i].Store().Get(name)
}

// RunFor advances virtual time (status propagation, tree adaptation).
func (s *SimCluster) RunFor(d time.Duration) { s.c.RunFor(d) }

// AddNode joins one new node into the running cluster through the live
// join protocol and returns its index. Seed its attributes with SetAttr
// and RunFor a moment; standing queries pick the newcomer up within one
// epoch of its announcements reaching a subscribed parent. Membership
// churn repair relies on the liveness path — boot the cluster with
// WithHeartbeats so crashes are detected and purged.
func (s *SimCluster) AddNode() int { return s.c.AddNode() }

// Kill crashes node i (it goes silent; nothing else is touched). With
// heartbeats enabled the survivors detect the silence, gossip an
// obituary, repair the routing slots, and re-install standing queries
// around the corpse; every answer's Contributors/Expected reports the
// resulting coverage.
func (s *SimCluster) Kill(i int) { s.c.Kill(i) }

// Recover restarts a crashed node with its identity and attribute store
// intact: it rejoins the overlay via a live member and re-arms the
// background loops that died with the crash.
func (s *SimCluster) Recover(i int) { s.c.Recover(i) }

// Down reports whether node i is currently crashed.
func (s *SimCluster) Down(i int) bool { return s.c.Down(i) }

// LiveCount reports the number of currently live nodes.
func (s *SimCluster) LiveCount() int { return s.c.LiveCount() }

// WithHeartbeats enables leaf-set liveness probing (disabled by default,
// mirroring the paper's exclusion of DHT maintenance): neighbors probe
// every interval and declare a node dead after three misses, which
// triggers the obituary purge and churn repair. Required for Kill to
// heal the overlay.
func WithHeartbeats(every time.Duration) Option {
	return func(o *options) { o.cl.Overlay.HeartbeatEvery = every }
}

// Messages reports total Moara-layer logical messages since the last
// reset (coalesced batches count as the messages they carry).
func (s *SimCluster) Messages() int64 { return s.c.MoaraMessages() }

// WireMessages reports Moara-layer transmissions since the last reset:
// a coalesced batch counts once. The gap to Messages is the wire
// saving of per-destination coalescing.
func (s *SimCluster) WireMessages() int64 { return s.c.WireMoaraMessages() }

// ResetMessageCounter zeroes accounting.
func (s *SimCluster) ResetMessageCounter() { s.c.Net.ResetCounter() }

// NodeID returns node i's overlay identifier string.
func (s *SimCluster) NodeID(i int) string { return s.c.IDs[i].String() }

// Trees snapshots node i's per-group tree state (§4/§5 variables) for
// inspection.
func (s *SimCluster) Trees(i int) []core.TreeInfo { return s.c.Nodes[i].Trees() }

// Subs snapshots node i's standing-subscription table for inspection.
func (s *SimCluster) Subs(i int) []core.SubInfo { return s.c.Nodes[i].Subs() }

// Remembered reports how many query IDs node i's answer-once memory
// (§6.2) holds.
func (s *SimCluster) Remembered(i int) int { return s.c.Nodes[i].Remembered() }

// IndexOfShort resolves an 8-hex-digit short node ID (as printed in
// enum/top-k results) back to a node index, or -1.
func (s *SimCluster) IndexOfShort(short string) int {
	for i, id := range s.c.IDs {
		if id.Short() == short {
			return i
		}
	}
	return -1
}

// Agent is a Moara node on a real TCP transport.
type Agent = transport.Node

// AgentOptions configure ListenAgent.
type AgentOptions = transport.Options

// ListenAgent starts a TCP agent on addr with the given cluster roster
// (every agent's listen address, including this one's).
func ListenAgent(addr string, roster []string, opts AgentOptions) (*Agent, error) {
	return transport.Listen(addr, roster, opts)
}

// FormatEntries renders list-valued results (enum/top-k) with short
// node identifiers.
func FormatEntries(res Result) []string {
	out := make([]string, 0, len(res.Agg.Entries))
	for _, e := range res.Agg.Entries {
		out = append(out, fmt.Sprintf("%s=%s", shortID(e.Node), e.Value))
	}
	return out
}

// FormatSample renders one monitoring sample as display lines: a
// header carrying the epoch and a cold-start marker, then per-key
// lines for grouped results, or a single aggregate line for scalar
// ones. Both shells use it to stream standing queries.
func FormatSample(s Sample) []string {
	cold := ""
	if s.ColdStart {
		cold = " (cold)"
	}
	if s.Result.Groups != nil {
		lines := []string{fmt.Sprintf("epoch %d%s:", s.Epoch, cold)}
		for _, l := range FormatGroups(s.Result) {
			lines = append(lines, "  "+l)
		}
		if s.Result.Truncated {
			lines = append(lines, "  (truncated: key cap exceeded, remainder under <other>)")
		}
		return lines
	}
	return []string{fmt.Sprintf("epoch %d%s: %s (%d contributors)",
		s.Epoch, cold, s.Result.Agg, s.Result.Contributors)}
}

// FormatGroups renders a grouped result's per-key answers as
// "key=value" lines, sorted by key for stable display.
func FormatGroups(res Result) []string {
	keys := make([]string, 0, len(res.Groups))
	for k := range res.Groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		g := res.Groups[k]
		if g.Counts != nil || g.Entries != nil {
			// List-valued sub-results (top-k, enum, union, collect,
			// topkeys) render their full lists, not just the scalar.
			out = append(out, fmt.Sprintf("%s=%s", k, g))
			continue
		}
		out = append(out, fmt.Sprintf("%s=%s", k, g.Value))
	}
	return out
}

func shortID(id ids.ID) string { return id.Short() }
