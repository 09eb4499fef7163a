// Command moara-agent runs one Moara node on a real TCP transport — the
// multi-process deployment form. A static roster of agent addresses
// defines the overlay (node IDs derive from listen addresses).
//
// Start a 4-agent local testbed:
//
//	for p in 7001 7002 7003 7004; do
//	  moara-agent -listen 127.0.0.1:$p \
//	    -peers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003,127.0.0.1:7004 \
//	    -attrs "cpu_util=$((RANDOM % 100)),apache=true" &
//	done
//	moara-agent -listen 127.0.0.1:7005 -peers ... -shell
//
// With -shell, the agent additionally reads queries from stdin.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/moara/moara"
	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/transport"
	"github.com/moara/moara/internal/value"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7001", "listen address (also this agent's identity)")
	peers := flag.String("peers", "", "comma-separated roster of all agent addresses")
	peersFile := flag.String("peers-file", "", "file with one agent address per line")
	attrs := flag.String("attrs", "", "comma-separated name=value attributes to publish")
	shell := flag.Bool("shell", false, "read queries from stdin")
	timeout := flag.Duration("timeout", 30*time.Second, "per-query timeout in shell mode")
	samples := flag.Int("samples", 5, "epochs to stream per standing query in shell mode")
	coalesce := flag.Duration("coalesce", 0,
		"wire coalescing window (0 = one handler turn, -1ns = off)")
	flag.Parse()

	roster, err := loadRoster(*peers, *peersFile)
	if err != nil {
		fatal(err)
	}
	var opts transport.Options
	opts.Node.CoalesceWindow = *coalesce
	node, err := transport.Listen(*listen, roster, opts)
	if err != nil {
		fatal(err)
	}
	defer node.Close()
	fmt.Printf("moara-agent: listening on %s (id %s), %d peers\n",
		node.Addr(), node.ID().Short(), len(roster))

	if err := applyAttrs(node, *attrs); err != nil {
		fatal(err)
	}

	if !*shell {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		<-sig
		return
	}

	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("moara> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case line == "quit" || line == "exit":
			return
		case line == "stats":
			s := node.Stats()
			fmt.Printf("  msgs in/out: %d/%d  bytes in/out: %d/%d\n",
				s.MsgsIn, s.MsgsOut, s.BytesIn, s.BytesOut)
			fmt.Printf("  decode errors: %d  encode errors: %d  dials: %d (errors %d, suppressed %d)\n",
				s.DecodeErrors, s.EncodeErrors, s.Dials, s.DialErrors, s.DialsSuppressed)
			var remembered int
			node.Do(func(c *core.Node) { remembered = c.Remembered() })
			fmt.Printf("  query IDs remembered (answer-once window): %d\n", remembered)
		case strings.HasPrefix(line, "set "):
			parts := strings.Fields(line)
			if len(parts) != 3 {
				fmt.Println("  usage: set <attr> <value>")
				break
			}
			v, err := value.Parse(parts[2])
			if err != nil {
				fmt.Printf("  bad value: %v\n", err)
				break
			}
			node.SetAttr(parts[1], v)
			fmt.Printf("  %s = %s\n", parts[1], v)
		default:
			if req, perr := moara.ParseRequest(line); perr == nil && req.Period > 0 {
				runStanding(node, line, req.Period, *samples)
				break
			}
			ctx, cancel := context.WithTimeout(context.Background(), *timeout)
			res, err := node.Query(ctx, line)
			cancel()
			if err != nil {
				fmt.Printf("  error: %v\n", err)
				break
			}
			if res.Groups != nil {
				for _, line := range moara.FormatGroups(res) {
					fmt.Printf("  %s\n", line)
				}
			}
			fmt.Printf("  %s  (%d contributors, %v)\n",
				res.Agg, res.Contributors, res.Stats.TotalTime.Round(time.Millisecond))
		}
		fmt.Print("moara> ")
	}
}

// runStanding streams a standing query's samples to the shell (on the
// real clock) until the requested number of epochs has been printed.
func runStanding(node *transport.Node, query string, period time.Duration, samples int) {
	// The callback runs on the agent's core goroutine and must not block:
	// it hands samples over a channel sized for the epochs wanted and
	// drops any that arrive while the shell is behind.
	ch := make(chan moara.Sample, max(samples, 1))
	sub, err := node.Subscribe(context.Background(), query, func(s moara.Sample) {
		select {
		case ch <- s:
		default:
		}
	})
	if err != nil {
		fmt.Printf("  error: %v\n", err)
		return
	}
	defer sub.Unsubscribe()
	deadline := time.After(time.Duration(4*(samples+8)) * period)
	for got := 0; got < samples; got++ {
		select {
		case s := <-ch:
			for _, line := range moara.FormatSample(s) {
				fmt.Printf("  %s\n", line)
			}
		case <-deadline:
			fmt.Println("  timed out waiting for samples")
			return
		}
	}
}

func loadRoster(csv, file string) ([]string, error) {
	var roster []string
	for _, a := range strings.Split(csv, ",") {
		if a = strings.TrimSpace(a); a != "" {
			roster = append(roster, a)
		}
	}
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, fmt.Errorf("read peers file: %w", err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
				roster = append(roster, line)
			}
		}
	}
	return roster, nil
}

func applyAttrs(node *transport.Node, spec string) error {
	for _, kv := range strings.Split(spec, ",") {
		if kv = strings.TrimSpace(kv); kv == "" {
			continue
		}
		name, raw, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("bad attribute %q (want name=value)", kv)
		}
		v, err := value.Parse(strings.TrimSpace(raw))
		if err != nil {
			return err
		}
		node.SetAttr(strings.TrimSpace(name), v)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "moara-agent: %v\n", err)
	os.Exit(1)
}
