// Command moara is the interactive front-end of §7: it boots a
// simulated Moara deployment, populates demo monitoring attributes,
// and drops into a query shell.
//
// Usage:
//
//	moara [-n 256] [-seed 1] [-lan|-wan]
//
// Shell commands:
//
//	<query>                  e.g. avg(cpu_util) where apache = true
//	<query> every <dur>      standing query: streams samples per epoch
//	set <node> <attr> <val>  write an attribute on a node's agent
//	get <node> <attr>        read an attribute
//	subs [node]              standing-subscription table snapshot
//	stats                    message-counter snapshot
//	help, quit
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/moara/moara"
	"github.com/moara/moara/internal/value"
)

func main() {
	n := flag.Int("n", 256, "cluster size")
	seed := flag.Int64("seed", 1, "random seed")
	lan := flag.Bool("lan", false, "use the Emulab-style LAN latency model")
	wan := flag.Bool("wan", false, "use the PlanetLab-style WAN latency model")
	samples := flag.Int("samples", 8, "epochs to stream per standing query")
	coalesce := flag.Duration("coalesce", 0,
		"wire coalescing window (0 = one event-loop tick, -1ns = off)")
	cacheTTL := flag.Duration("cache", 0,
		"query-service result cache TTL (0 = caching off); cached answers print their age")
	flag.Parse()

	opts := []moara.Option{moara.WithSeed(*seed)}
	if *coalesce != 0 {
		opts = append(opts, moara.WithCoalesceWindow(*coalesce))
	}
	switch {
	case *lan:
		opts = append(opts, moara.WithLANModel())
	case *wan:
		opts = append(opts, moara.WithWANModel())
	}
	c := moara.NewSimCluster(*n, opts...)
	seedDemoAttrs(c)
	// The shell talks to the cluster through the unified client API,
	// fronted by the query service: identical standing queries share one
	// installed tree, and with -cache one-shot answers within the TTL are
	// served from the service (stamped with their age).
	cl := moara.NewService(c.Client(0), moara.ServiceOptions{CacheTTL: *cacheTTL})

	fmt.Printf("moara: %d-node simulated cluster ready; try: count(*) where apache = true, or avg(mem_util) group by slice\n", *n)
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("moara> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case line == "quit" || line == "exit":
			return
		case line == "help":
			fmt.Println("  <agg>(<attr>) [group by <attr>] [where <pred>] [every <dur>] | set <node> <attr> <val> | get <node> <attr> | trees [node] | subs [node] | stats | quit")
			fmt.Println("  aggs: sum count min max avg std topN enum | sketches: dcount quantile(x,q) pNN topkeys(x,k) union collect")
		case line == "stats":
			logical, wire := c.Messages(), c.WireMessages()
			fmt.Printf("  moara messages since start/reset: %d logical, %d wire", logical, wire)
			if wire > 0 && logical > wire {
				fmt.Printf(" (coalescing saved %.0f%%)", 100*float64(logical-wire)/float64(logical))
			}
			fmt.Println()
			remembered := 0
			for i := 0; i < c.Size(); i++ {
				remembered += c.Remembered(i)
			}
			fmt.Printf("  query IDs remembered (answer-once window): %d across %d nodes\n", remembered, c.Size())
		case line == "subs" || strings.HasPrefix(line, "subs "):
			parts := strings.Fields(line)
			node := 0
			if len(parts) == 2 {
				if i, err := strconv.Atoi(parts[1]); err == nil && i >= 0 && i < c.Size() {
					node = i
				}
			}
			infos := c.Subs(node)
			if len(infos) == 0 {
				fmt.Println("  (no subscriptions)")
			}
			for _, si := range infos {
				fmt.Printf("  %-12s %-40s root=%-5v every=%-8s epoch=%-4d children=%d targets=%d contributors=%d rebuilds=%d reuses=%d\n",
					si.SID, si.Group, si.Root, si.Period, si.Epoch, si.Children, si.Targets, si.Contributors, si.Rebuilds, si.Reuses)
			}
		case strings.HasPrefix(line, "trees"):
			parts := strings.Fields(line)
			node := 0
			if len(parts) == 2 {
				if i, err := strconv.Atoi(parts[1]); err == nil && i >= 0 && i < c.Size() {
					node = i
				}
			}
			for _, ti := range c.Trees(node) {
				fmt.Printf("  %-40s level=%-2d sat=%-5v update=%-5v prune=%-5v qset=%d np=%d\n",
					ti.Group, ti.Level, ti.Sat, ti.Update, ti.Prune, ti.QSetSize, ti.Np)
			}
		case strings.HasPrefix(line, "set "):
			doSet(c, line)
		case strings.HasPrefix(line, "get "):
			doGet(c, line)
		default:
			runQuery(c, cl, line, *samples)
		}
		fmt.Print("moara> ")
	}
}

func runQuery(c *moara.SimCluster, cl moara.Client, q string, samples int) {
	if req, err := moara.ParseRequest(q); err == nil && req.Period > 0 {
		runStanding(c, cl, q, req.Period, samples)
		return
	}
	res, err := cl.Query(context.Background(), q)
	if err != nil {
		fmt.Printf("  error: %v\n", err)
		return
	}
	if res.Cached {
		fmt.Printf("  (cached %s ago)\n", res.Age)
	}
	if res.Groups != nil {
		for _, line := range moara.FormatGroups(res) {
			fmt.Printf("  %s\n", line)
		}
		if res.Truncated {
			fmt.Println("  (truncated: key cap exceeded, remainder under <other>)")
		}
		fmt.Printf("  total %s across %d keys\n", res.Agg.Value, res.Stats.GroupKeys)
	} else {
		fmt.Printf("  %s\n", res.Agg)
	}
	fmt.Printf("  %d contributors, %.1f ms", res.Contributors,
		float64(res.Stats.TotalTime.Microseconds())/1000)
	if len(res.Stats.Chosen) > 0 {
		fmt.Printf(", cover %v", res.Stats.Chosen)
	}
	if res.Stats.ShortCircuit {
		fmt.Print(", short-circuited (provably empty)")
	}
	fmt.Println()
}

// runStanding installs a standing query through the service, pumps
// virtual time for the requested number of epochs while printing each
// sample, then cancels. A second identical query typed while one is
// live would share the same installed tree.
func runStanding(c *moara.SimCluster, cl moara.Client, q string, period time.Duration, samples int) {
	got := 0
	sub, err := cl.Subscribe(context.Background(), q, func(s moara.Sample) {
		got++
		for _, line := range moara.FormatSample(s) {
			fmt.Printf("  %s\n", line)
		}
	})
	if err != nil {
		fmt.Printf("  error: %v\n", err)
		return
	}
	for i := 0; got < samples && i < 4*samples+16; i++ {
		c.RunFor(period)
	}
	if err := sub.Unsubscribe(); err != nil {
		fmt.Printf("  unsubscribe: %v\n", err)
	}
	// Drain the cancel cascade in virtual time so `subs` shows the
	// post-teardown state.
	c.RunFor(4 * period)
	fmt.Printf("  cancelled after %d epochs\n", got)
}

func doSet(c *moara.SimCluster, line string) {
	parts := strings.Fields(line)
	if len(parts) != 4 {
		fmt.Println("  usage: set <node> <attr> <value>")
		return
	}
	i, err := strconv.Atoi(parts[1])
	if err != nil || i < 0 || i >= c.Size() {
		fmt.Printf("  bad node index %q (0..%d)\n", parts[1], c.Size()-1)
		return
	}
	v, err := value.Parse(parts[3])
	if err != nil {
		fmt.Printf("  bad value: %v\n", err)
		return
	}
	c.SetAttr(i, parts[2], v)
	fmt.Printf("  node %d: %s = %s\n", i, parts[2], v)
}

func doGet(c *moara.SimCluster, line string) {
	parts := strings.Fields(line)
	if len(parts) != 3 {
		fmt.Println("  usage: get <node> <attr>")
		return
	}
	i, err := strconv.Atoi(parts[1])
	if err != nil || i < 0 || i >= c.Size() {
		fmt.Printf("  bad node index %q\n", parts[1])
		return
	}
	fmt.Printf("  node %d: %s = %s\n", i, parts[2], c.Attr(i, parts[2]))
}

// seedDemoAttrs gives the shell something to query out of the box.
func seedDemoAttrs(c *moara.SimCluster) {
	for i := 0; i < c.Size(); i++ {
		c.SetAttr(i, "cpu_util", moara.Float(float64((i*53)%100)))
		c.SetAttr(i, "mem_util", moara.Float(float64((i*29)%100)))
		c.SetAttr(i, "apache", moara.Bool(i%2 == 0))
		c.SetAttr(i, "service_x", moara.Bool(i%5 == 0))
		c.SetAttr(i, "os", moara.Str([]string{"linux", "freebsd", "solaris"}[i%3]))
		c.SetAttr(i, "slice", moara.Str(fmt.Sprintf("cs%d", 100+i%7)))
	}
}
