// Package cluster boots whole Moara deployments on the simulated
// network: N nodes with deterministic identifiers and oracle-built
// overlay state, later members joining through the real join protocol
// (AddNode), plus synchronous driver helpers that pump the event loop
// until a query completes.
package cluster

import (
	"fmt"
	"strings"
	"time"

	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/pastry"
	"github.com/moara/moara/internal/simnet"
)

// Options configure a simulated cluster.
type Options struct {
	// N is the node count.
	N int
	// Seed drives all randomness (default 1).
	Seed int64
	// Latency is the network model (default 1ms fixed).
	Latency simnet.LatencyModel
	// ProcDelay/ProcJitter model per-message software overhead.
	ProcDelay  time.Duration
	ProcJitter time.Duration
	// SerializeProc enables per-node CPU queueing (see simnet.Options).
	SerializeProc bool
	// InstancesPerMachine co-locates consecutive nodes onto shared
	// CPUs, like the paper's Emulab testbed (10 instances/machine).
	// 0 or 1 means one CPU per node.
	InstancesPerMachine int
	// Tap observes every message (see simnet.Options).
	Tap func(from, to ids.ID, m any, wireLatency time.Duration)
	// Node is the Moara configuration applied to every node.
	Node core.Config
	// Overlay is the Pastry configuration applied to every node.
	Overlay pastry.Config
	// Shards is simnet's heap count (see simnet.Options.Shards): 0 or 1
	// runs every node on one heap, K >= 2 partitions the nodes across K
	// heaps that drain lookahead windows in parallel. It is a speed
	// setting: a seed gives the same run at any shard/worker count.
	// K >= 2 is incompatible with SerializeProc, InstancesPerMachine > 1,
	// and Tap (simnet rejects those at construction).
	Shards int
	// ShardWorkers caps OS-thread parallelism for sharded runs
	// (0 = GOMAXPROCS, 1 = serial; results identical either way).
	ShardWorkers int
}

// Emulab returns o on the paper's Emulab testbed: a switched LAN, and
// 800±400 µs of processing per message (standing in for the
// FreePastry/Java software stack), queued on CPUs that 10 consecutive
// instances share.
func (o Options) Emulab() Options {
	o.Latency = simnet.LAN(simnet.LANConfig{})
	o.ProcDelay = 800 * time.Microsecond
	o.ProcJitter = 400 * time.Microsecond
	o.SerializeProc = true
	o.InstancesPerMachine = 10
	return o
}

// PlanetLab returns o on a PlanetLab-style wide-area network: heavy-tailed
// latencies drawn from o.Seed with intermittently slow stragglers, and
// 500±500 µs of processing per message, queued per node.
func (o Options) PlanetLab() Options {
	o.Latency = simnet.WAN(simnet.WANConfig{Seed: o.Seed})
	o.ProcDelay = 500 * time.Microsecond
	o.ProcJitter = 500 * time.Microsecond
	o.SerializeProc = true
	return o
}

// Cluster is a complete simulated deployment.
type Cluster struct {
	Net    *simnet.Network
	Oracle *pastry.Oracle
	// Nodes holds the Moara nodes in creation order; IDs[i] is
	// Nodes[i]'s identifier.
	Nodes []*core.Node
	IDs   []ids.ID
	ByID  map[ids.ID]*core.Node

	// down tracks nodes currently crashed (by index).
	down map[int]bool
	// machineOf places each node on its machine's CPU under
	// co-location (nil without it); the network's CPUOf reads it.
	machineOf map[ids.ID]int

	opts Options
}

// NodeID returns the deterministic identifier of the i-th node.
func NodeID(i int) ids.ID {
	return ids.FromKey(fmt.Sprintf("node-%d", i))
}

// New boots a cluster, its routing tables filled from global knowledge
// (the FreePastry-simulator equivalent), ready immediately.
func New(opts Options) *Cluster {
	if opts.N <= 0 {
		panic("cluster: N must be positive")
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	sopts := simnet.Options{
		Seed:          opts.Seed,
		Latency:       opts.Latency,
		ProcDelay:     opts.ProcDelay,
		ProcJitter:    opts.ProcJitter,
		SerializeProc: opts.SerializeProc,
		Tap:           opts.Tap,
		Shards:        opts.Shards,
		ShardWorkers:  opts.ShardWorkers,
	}
	c := &Cluster{
		Nodes: make([]*core.Node, 0, opts.N),
		IDs:   make([]ids.ID, 0, opts.N),
		ByID:  make(map[ids.ID]*core.Node, opts.N),
		down:  make(map[int]bool),
		opts:  opts,
	}
	if opts.InstancesPerMachine > 1 {
		c.machineOf = make(map[ids.ID]int, opts.N)
		sopts.CPUOf = func(id ids.ID) int {
			if m, ok := c.machineOf[id]; ok {
				return m
			}
			return -1
		}
	}
	c.Net = simnet.New(sopts)
	for i := 0; i < opts.N; i++ {
		c.add(i)
	}
	c.Oracle = pastry.NewOracle(c.IDs)
	for _, n := range c.Nodes {
		c.Oracle.Fill(n.Overlay())
	}
	return c
}

// Node returns the i-th node.
func (c *Cluster) Node(i int) *core.Node { return c.Nodes[i] }

// AddNode joins one new node into the running cluster through the real
// join protocol (§7 reconfiguration: overlay membership changes while
// group trees are live) and returns its index. The join bootstraps via
// a currently live member, so nodes can keep joining while earlier
// members are crashed. The caller seeds the new node's attribute store
// and RunFors a moment to let announcements settle; standing queries
// whose tree the newcomer lands in re-install onto it within one epoch
// of its announcements reaching a subscribed parent.
func (c *Cluster) AddNode() int {
	i := len(c.Nodes)
	c.add(i).Overlay().Join(c.liveBootstrap(i))
	return i
}

// add registers node i on the network — on its machine's CPU under
// co-location, joiners included — and appends it to the cluster.
func (c *Cluster) add(i int) *core.Node {
	id := NodeID(i)
	if c.machineOf != nil {
		c.machineOf[id] = i / c.opts.InstancesPerMachine
	}
	env := c.Net.AddNode(id)
	n := core.NewNode(env, c.opts.Node, c.opts.Overlay)
	env.BindHandler(n)
	c.Nodes = append(c.Nodes, n)
	c.IDs = append(c.IDs, id)
	c.ByID[id] = n
	return n
}

// liveBootstrap picks a live member (other than node i) for a join or
// rejoin, preferring the lowest index for determinism.
func (c *Cluster) liveBootstrap(i int) ids.ID {
	for j := range c.Nodes {
		if j != i && !c.down[j] {
			return c.IDs[j]
		}
	}
	panic("cluster: no live bootstrap node")
}

// Kill crashes node i: it stops sending, receiving, and ticking, but —
// unlike the old test-only pattern of calling Overlay().RemoveNode on
// every survivor — nothing else is touched. The survivors purge the
// dead node through the liveness path: its leaf-set neighbors detect the
// silence by heartbeat misses (enable Overlay.HeartbeatEvery) and gossip
// an obituary cluster-wide, which also drops every Moara-layer child
// state and buffered epoch report referencing the corpse. Without
// heartbeats the overlay never heals and queries rely on child timeouts
// alone, exactly as a real deployment without failure detection would.
func (c *Cluster) Kill(i int) {
	if c.down[i] {
		return
	}
	c.down[i] = true
	c.Net.SetDown(c.IDs[i], true)
}

// Recover restarts a crashed node: it retains its identifier, attribute
// store, and pre-crash protocol state (the crash-stop model of a
// process pause), rejoins the overlay via a live bootstrap — clearing
// the death certificates the cluster holds for it — and re-arms the
// background loops whose timers died during the outage.
func (c *Cluster) Recover(i int) {
	if !c.down[i] {
		return
	}
	delete(c.down, i)
	c.Net.SetDown(c.IDs[i], false)
	c.Nodes[i].Recover(c.liveBootstrap(i))
}

// Down reports whether node i is currently crashed.
func (c *Cluster) Down(i int) bool { return c.down[i] }

// LiveCount reports the number of currently live nodes.
func (c *Cluster) LiveCount() int { return len(c.Nodes) - len(c.down) }

// LiveIndices returns the indices of currently live nodes in order.
func (c *Cluster) LiveIndices() []int {
	out := make([]int, 0, c.LiveCount())
	for i := range c.Nodes {
		if !c.down[i] {
			out = append(out, i)
		}
	}
	return out
}

// RunFor advances the simulation.
func (c *Cluster) RunFor(d time.Duration) { c.Net.RunFor(d) }

// Execute runs a query from node i and pumps the network until the
// result arrives, returning it with the virtual-time latency recorded
// in Result.Stats. A crashed origin cannot reach any member, so
// executing from a down node fails immediately with ErrNoMembers.
func (c *Cluster) Execute(i int, req core.Request) (core.Result, error) {
	if c.down[i] {
		return core.Result{}, fmt.Errorf("%w: origin node %d is down", core.ErrNoMembers, i)
	}
	var (
		res  core.Result
		err  error
		done bool
	)
	c.Nodes[i].Execute(req, func(r core.Result, e error) {
		res, err, done = r, e, true
	})
	c.Net.RunWhile(func() bool { return !done })
	if !done {
		return core.Result{}, fmt.Errorf("cluster: query did not complete (event queue drained)")
	}
	return res, err
}

// Subscribe installs a standing query at node i. Samples are delivered
// to cb as the caller pumps virtual time with RunFor/RunWhile.
//
// Concurrency contract: cb runs ON THE EVENT-LOOP GOROUTINE — the one
// pumping RunFor/RunWhile. It must not call back into the cluster
// (Execute, Subscribe, Unsubscribe, RunFor: the node is mid-dispatch
// and not re-entrant), and a cb that blocks stalls every node in the
// simulation, since one goroutine drives them all. Hand samples off to
// a channel or buffer instead; the query-service front-end's buffered
// fan-out (internal/service with Buffer > 0) packages that pattern.
func (c *Cluster) Subscribe(i int, req core.Request, cb func(core.Sample)) (core.QueryID, error) {
	if c.down[i] {
		return core.QueryID{}, fmt.Errorf("%w: origin node %d is down", core.ErrNoMembers, i)
	}
	return c.Nodes[i].Subscribe(req, cb)
}

// Unsubscribe cancels a standing query installed from node i; unknown
// subscription IDs report ErrUnknownSub.
func (c *Cluster) Unsubscribe(i int, id core.QueryID) error {
	return c.Nodes[i].Unsubscribe(id)
}

// ExecuteText parses and runs a query-language string from node i.
func (c *Cluster) ExecuteText(i int, q string) (core.Result, error) {
	req, err := core.ParseRequest(q)
	if err != nil {
		return core.Result{}, err
	}
	return c.Execute(i, req)
}

// Warm runs one throwaway query so trees exist and nodes have learned
// their parents, then resets message accounting. Experiments call this
// before measuring, mirroring the paper's warm-up phase.
func (c *Cluster) Warm(queries ...core.Request) error {
	for _, q := range queries {
		if _, err := c.Execute(0, q); err != nil {
			return err
		}
	}
	// Drain any trailing status propagation.
	c.Net.RunFor(5 * time.Second)
	c.Net.ResetCounter()
	return nil
}

// sumMoara totals a per-kind counter map over the Moara layer
// (queries, responses, status updates, probes, subscription traffic),
// excluding overlay maintenance, matching the paper's accounting.
func sumMoara(byKind map[string]int64) int64 {
	var total int64
	for kind, n := range byKind {
		if strings.HasPrefix(kind, "moara.") {
			total += n
		}
	}
	return total
}

// MoaraMessages sums the Moara-layer logical messages.
func (c *Cluster) MoaraMessages() int64 {
	return sumMoara(c.Net.Counter().ByKind())
}

// MessagesPerNode is MoaraMessages averaged over the cluster.
func (c *Cluster) MessagesPerNode() float64 {
	return float64(c.MoaraMessages()) / float64(len(c.Nodes))
}

// QueryMessages counts full query-layer traffic: Moara messages plus
// the overlay route hops that carry query-layer payloads (sub-queries,
// probes, subscription installs and cancels) to tree roots. The
// poll-vs-standing comparison uses it so the per-round routing cost a
// standing query pays only once is accounted on both sides.
func (c *Cluster) QueryMessages() int64 {
	return c.MoaraMessages() + c.Net.Counter().Logical("overlay.route")
}

// WireMoaraMessages counts Moara-layer transmissions: like
// MoaraMessages, but a coalesced batch ("moara.batch") counts once
// however many logical messages it carries. With CoalesceOff the two
// counts are equal; the gap between them is the wire saving of
// per-destination coalescing.
func (c *Cluster) WireMoaraMessages() int64 {
	return sumMoara(c.Net.Counter().WireByKind())
}

// WireQueryMessages is WireMoaraMessages plus overlay route hops — the
// wire-level counterpart of QueryMessages. Route hops are never
// coalesced, so their wire and logical counts coincide.
func (c *Cluster) WireQueryMessages() int64 {
	return c.WireMoaraMessages() + c.Net.Counter().WireCount("overlay.route")
}
