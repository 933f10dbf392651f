// Command ipnode runs an Infopipe node daemon (§2.4): it hosts a scheduler
// and an event bus, registers the standard component factories, and serves
// the remote-setup protocol so that clients can compose, query and control
// pipelines on it.
//
// Usage:
//
//	ipnode serve [-addr host:port] [-name NAME]
//	    Serve the control protocol until interrupted.  The node is
//	    cluster-ready: it hosts graph segments (EnableGraphNode with the
//	    standard catalog) and answers the extended §2.4 ops — stats,
//	    health, caps, detach, and the cluster lane controls — so ipctl
//	    can observe it and a deployer can re-place segments onto it.
//
//	ipnode demo
//	    Start a node in-process, compose a player remotely on it,
//	    query its Typespecs, run it, and report — a self-contained
//	    demonstration of the remote-setup path.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"time"

	"infopipes"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: ipnode serve|demo [flags]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = serve(os.Args[2:])
	case "demo":
		err = demo()
	default:
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ipnode:", err)
		os.Exit(1)
	}
}

// newNode builds a node with the standard factory registry.
func newNode(name string) (*infopipes.Node, *infopipes.Scheduler) {
	sched := infopipes.NewRealTimeScheduler()
	bus := &infopipes.Bus{}
	node := infopipes.NewNode(name, sched, bus)

	node.RegisterFactory("video-source", func(n string, params map[string]string) (infopipes.Stage, error) {
		cfg := infopipes.DefaultVideoConfig()
		limit := int64(300)
		if v, ok := params["frames"]; ok {
			parsed, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return infopipes.Stage{}, fmt.Errorf("frames: %w", err)
			}
			limit = parsed
		}
		src, err := infopipes.NewVideoSource(n, cfg, limit)
		if err != nil {
			return infopipes.Stage{}, err
		}
		return infopipes.Comp(src), nil
	})
	node.RegisterFactory("decoder", func(n string, _ map[string]string) (infopipes.Stage, error) {
		return infopipes.Comp(infopipes.NewDecoder(n, 0)), nil
	})
	node.RegisterFactory("drop-filter", func(n string, _ map[string]string) (infopipes.Stage, error) {
		return infopipes.Comp(infopipes.NewDropFilter(n, infopipes.PriorityDropPolicy)), nil
	})
	node.RegisterFactory("buffer", func(n string, params map[string]string) (infopipes.Stage, error) {
		depth := 8
		if v, ok := params["depth"]; ok {
			parsed, err := strconv.Atoi(v)
			if err != nil {
				return infopipes.Stage{}, fmt.Errorf("depth: %w", err)
			}
			depth = parsed
		}
		return infopipes.Buf(infopipes.NewBuffer(n, depth)), nil
	})
	node.RegisterFactory("clocked-pump", func(n string, params map[string]string) (infopipes.Stage, error) {
		rate := 30.0
		if v, ok := params["rate"]; ok {
			parsed, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return infopipes.Stage{}, fmt.Errorf("rate: %w", err)
			}
			rate = parsed
		}
		return infopipes.Pmp(infopipes.NewClockedPump(n, rate)), nil
	})
	node.RegisterFactory("free-pump", func(n string, _ map[string]string) (infopipes.Stage, error) {
		return infopipes.Pmp(infopipes.NewFreePump(n)), nil
	})
	node.RegisterFactory("display", func(n string, _ map[string]string) (infopipes.Stage, error) {
		return infopipes.Comp(infopipes.NewDisplay(n)), nil
	})
	// Cluster readiness: the standard catalog as spec factories, the ip/
	// boundary factories, and the handler behind the typed lane op.
	infopipes.EnableGraphNode(node, infopipes.StandardCatalog())
	return node, sched
}

func serve(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7700", "control listen address")
	name := fs.String("name", "ipnode", "node name (Typespec location)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	node, sched := newNode(*name)
	bound, err := node.Serve(*addr)
	if err != nil {
		return err
	}
	fmt.Printf("node %q serving on %s\n", *name, bound)
	done := sched.RunBackground()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	select {
	case <-sig:
		fmt.Println("\ninterrupted; shutting down")
	case err := <-done:
		return err
	}
	node.Close()
	sched.Stop()
	return nil
}

func demo() error {
	node, sched := newNode("demo-node")
	addr, err := node.Serve("127.0.0.1:0")
	if err != nil {
		return err
	}
	done := sched.RunBackground()
	fmt.Printf("node %q on %s\n", node.Name(), addr)

	client, err := infopipes.DialNode(addr)
	if err != nil {
		return err
	}
	defer client.Close()

	if err := client.Compose("player", []infopipes.StageSpec{
		{Kind: "video-source", Name: "source", Params: map[string]string{"frames": "90"}},
		{Kind: "decoder", Name: "decode"},
		{Kind: "clocked-pump", Name: "pump", Params: map[string]string{"rate": "90"}},
		{Kind: "display", Name: "display"},
	}); err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		spec, err := client.QuerySpec("player", i)
		if err != nil {
			return err
		}
		fmt.Printf("typespec after stage %d: %s\n", i, spec)
	}
	if err := client.Start("player"); err != nil {
		return err
	}
	p, _ := node.Pipeline("player")
	select {
	case <-p.Done():
	case <-time.After(time.Minute):
		return fmt.Errorf("remote player did not finish")
	}
	node.Close()
	sched.Stop()
	if err := <-done; err != nil {
		return err
	}
	fmt.Println("remote player finished cleanly")
	return nil
}
