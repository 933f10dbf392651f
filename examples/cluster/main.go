// Cluster: operating a multi-node deployment — watch it, then move it.
//
// Two Infopipe nodes start in-process (the same code path as two `ipnode
// serve` processes), a Directory registers and heartbeats them, and a
// three-segment chain (clocked source | worker | sink, joined by cut
// edges) deploys across them over the §2.4 remote-setup protocol with
// cluster lanes: every cut edge is a resumable, redialable TCP lane.
//
// While the stream runs, the program reads Deployment.Stats — assembled by
// fanning the stats op out to both nodes, with per-node attribution — and
// then calls Deployment.Rebalance to move the worker segment from beta onto
// alpha MID-STREAM: the control plane pauses the upstream node, waits for
// the segment to drain, detaches it, recomposes it on alpha seeded with
// the same Typespec, redials the stationary sender, and resumes.
//
// The final trace is compared against a single-node run of the same graph:
// byte-identical, so placement across HOSTS is runtime policy — RAFDA's
// late-bound distribution argument, extended to re-binding while the flow
// runs.
package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"infopipes"
)

const (
	items = 60
	rate  = "150"
)

// catalog is the demo's component library; collect sinks are captured so
// the (in-process) program can read traces back out of the nodes.
type sinkStore struct {
	mu    sync.Mutex
	sinks map[string]*infopipes.CollectSink
}

func (ss *sinkStore) catalog() infopipes.GraphCatalog {
	return infopipes.GraphCatalog{
		"counter": func(name string, args []string, _ map[string]string) (infopipes.Stage, error) {
			limit, err := strconv.ParseInt(args[0], 10, 64)
			if err != nil {
				return infopipes.Stage{}, err
			}
			return infopipes.Comp(infopipes.NewCounterSource(name, limit)), nil
		},
		"cpump": func(name string, args []string, _ map[string]string) (infopipes.Stage, error) {
			r, err := strconv.ParseFloat(args[0], 64)
			if err != nil {
				return infopipes.Stage{}, err
			}
			return infopipes.Pmp(infopipes.NewClockedPump(name, r)), nil
		},
		"fpump": func(name string, _ []string, _ map[string]string) (infopipes.Stage, error) {
			return infopipes.Pmp(infopipes.NewFreePump(name)), nil
		},
		"probe": func(name string, _ []string, _ map[string]string) (infopipes.Stage, error) {
			return infopipes.Comp(infopipes.NewCountingProbe(name)), nil
		},
		"collect": func(name string, _ []string, _ map[string]string) (infopipes.Stage, error) {
			s := infopipes.NewCollectSink(name)
			ss.mu.Lock()
			ss.sinks[name] = s
			ss.mu.Unlock()
			return infopipes.Comp(s), nil
		},
	}
}

// startNode brings one cluster node up in-process.
func startNode(name string, cat infopipes.GraphCatalog) (*infopipes.Node, *infopipes.Scheduler, string, error) {
	sched := infopipes.NewRealTimeScheduler()
	node := infopipes.NewNode(name, sched, &infopipes.Bus{})
	infopipes.EnableGraphNode(node, cat)
	addr, err := node.Serve("127.0.0.1:0")
	if err != nil {
		return nil, nil, "", err
	}
	sched.RunBackground()
	return node, sched, addr, nil
}

// declare builds the chain: src>>pump | cut | mid>>mp | cut | out>>sink.
// The middle segment lands on midNode; everything else on node 0.
func declare(midNode int) *infopipes.Graph {
	g := infopipes.NewGraph("cluster")
	g.AddSpec("src", "counter", infopipes.GraphArgs(strconv.Itoa(items)), infopipes.GraphPlace(0))
	g.AddSpec("pump", "cpump", infopipes.GraphArgs(rate), infopipes.GraphPlace(0))
	g.AddSpec("mid", "probe", infopipes.GraphPlace(midNode))
	g.AddSpec("mp", "fpump", infopipes.GraphPlace(midNode))
	g.AddSpec("out", "fpump", infopipes.GraphPlace(0))
	g.AddSpec("sink", "collect", infopipes.GraphPlace(0))
	g.Pipe("src", "pump")
	g.Cut("pump", "mid")
	g.Pipe("mid", "mp")
	g.Cut("mp", "out")
	g.Pipe("out", "sink")
	return g
}

func trace(sink *infopipes.CollectSink) string {
	var b strings.Builder
	for _, it := range sink.Items() {
		fmt.Fprintf(&b, "%d ", it.Seq)
	}
	return strings.TrimSpace(b.String())
}

// singleNode runs the whole chain on one node — the reference trace.
func singleNode() (string, error) {
	ss := &sinkStore{sinks: make(map[string]*infopipes.CollectSink)}
	node, sched, addr, err := startNode("solo", ss.catalog())
	if err != nil {
		return "", err
	}
	defer func() { node.Close(); sched.Stop() }()
	client, err := infopipes.DialNode(addr)
	if err != nil {
		return "", err
	}
	defer client.Close()
	d, err := declare(0).Deploy(infopipes.OnNodes(client).WithClusterLanes())
	if err != nil {
		return "", err
	}
	d.Start()
	if err := d.Wait(); err != nil {
		return "", err
	}
	return trace(ss.sinks["sink"]), nil
}

// cluster runs the chain across two nodes and re-places the worker segment
// mid-stream.
func cluster() (string, error) {
	ss := &sinkStore{sinks: make(map[string]*infopipes.CollectSink)}
	cat := ss.catalog()
	nodeA, schedA, addrA, err := startNode("alpha", cat)
	if err != nil {
		return "", err
	}
	defer func() { nodeA.Close(); schedA.Stop() }()
	nodeB, schedB, addrB, err := startNode("beta", cat)
	if err != nil {
		return "", err
	}
	defer func() { nodeB.Close(); schedB.Stop() }()

	// The directory is the operator's view: register, heartbeat, report.
	dir := infopipes.NewClusterDirectory()
	defer dir.Close()
	for _, addr := range []string{addrA, addrB} {
		if _, err := dir.Register(addr); err != nil {
			return "", err
		}
	}
	dir.Heartbeat()
	for _, h := range dir.Snapshot() {
		fmt.Printf("node %-6s %-22s healthy=%v pipelines=%d\n", h.Name, h.Addr, h.Healthy, h.Pipelines)
	}

	// Deploy across both nodes: the worker segment on beta, ends on alpha.
	d, err := declare(1).Deploy(infopipes.OnNodes(dir.Clients()...).WithClusterLanes())
	if err != nil {
		return "", err
	}
	d.Start()

	// Wait until the stream is demonstrably live, then read the telemetry
	// an operator would act on.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := d.Stats()
		var mid int64
		for _, seg := range st.Segments {
			if seg.Name == "mid>>mp" {
				mid = seg.Items
			}
		}
		if mid >= items/6 {
			break
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("stream never came up")
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := d.Stats()
	fmt.Printf("mid-stream telemetry (placements %v):\n", d.SegmentPlacements())
	for i, load := range st.Shards {
		fmt.Printf("  node %-6s: %d live pipelines, %d items moved\n", st.Nodes[i], load.Pipelines, load.Items)
	}

	// Move the worker from beta onto alpha, mid-stream: drain, detach,
	// recompose, redial, resume.
	if err := d.Rebalance(map[string]int{"mid>>mp": 0}); err != nil {
		return "", err
	}
	fmt.Printf("replaced mid>>mp onto alpha: placements now %v\n", d.SegmentPlacements())

	if err := d.Wait(); err != nil {
		return "", err
	}
	st = d.Stats()
	fmt.Println("after drain (counters cumulative across the move):")
	for _, seg := range st.Segments {
		if !seg.Relay {
			fmt.Printf("  %-10s node=%s items=%d\n", seg.Name, st.Nodes[seg.Shard], seg.Items)
		}
	}
	return trace(ss.sinks["sink"]), nil
}

func main() {
	ref, err := singleNode()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cluster: single-node run:", err)
		os.Exit(1)
	}
	got, err := cluster()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cluster: two-node run:", err)
		os.Exit(1)
	}
	fmt.Printf("single-node trace: %s\n", ref)
	fmt.Printf("re-placed trace:   %s\n", got)
	if got == ref {
		fmt.Println("traces byte-identical: the cross-node re-placement is invisible to the flow")
	} else {
		fmt.Println("TRACES DIVERGED")
		os.Exit(1)
	}
}
