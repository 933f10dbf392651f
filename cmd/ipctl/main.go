// Command ipctl is the cluster operator tool: it speaks the extended §2.4
// control protocol to a set of ipnode processes — liveness, health
// counters, and per-pipeline telemetry — the read side of the cluster
// control plane.
//
// Usage:
//
//	ipctl ping   -nodes host:port,host:port
//	    Print each node's name and reachability.
//
//	ipctl health -nodes host:port,...
//	    One row per node: pipelines hosted, context switches, uptime.
//
//	ipctl stats  -nodes host:port,... [-prefix NAME/]
//	    Per-pipeline pump counters (items, cycles, busy time, state)
//	    across the cluster, prefix-filtered.
//
//	ipctl top    -nodes host:port,... [-interval 2s] [-count 0]
//	    Repeating health + stats display (count 0 = until interrupted).
//
//	ipctl watch  -nodes host:port,... [-op host:port] [-interval 2s] [-count 0] [-prefix NAME/]
//	    Live event stream: prints node UP/DOWN transitions and pipeline
//	    lifecycle changes (started, done, FAILED) as they happen, instead
//	    of redrawing full tables.  With -op it also tails the cluster's
//	    membership log, emitting JOIN/DRAIN/LEAVE lines as nodes come,
//	    drain, and go.
//
//	ipctl tenants -nodes host:port,...
//	    Per-node QoS tenant rollups: weight, admitted/shed counts at
//	    admission control, weighted-fair credit debt and work share.
//
//	ipctl nodes  -op host:port
//	    Cluster membership table from the deployment's operator endpoint
//	    (requires an elastic cluster wired in with Operator.WithCluster):
//	    node index, name, address, health/left state, hosted segments.
//
//	ipctl drain <node> -op host:port
//	    Migrate every segment off the named node onto healthy survivors via
//	    the cluster's loss-free drain, then print the membership table.
//	    After a drain the node can leave the cluster without item loss.
//
//	ipctl replace -op host:port [-deployment NAME] [-move seg=node,...]
//	    Manual segment move against a deployment's operator endpoint
//	    (control.Operator): -move re-places each named segment onto the
//	    given node index — journals replay in-flight items, so no drain is
//	    needed — and without -move the current placements are printed.
//
//	ipctl edit tenant -op host:port [-deployment NAME] [-weight N] [-rate R -burst B] [-prio high|normal|low]
//	    Retune the deployment's QoS tenant live: weight, admission rate
//	    limit (rate 0 = unlimited), pump priority.  The only edit remote
//	    (OnNodes) deployments accept.
//
//	ipctl edit detach -op host:port [-deployment NAME] -split TEE -port N
//	    Detach a pure sink branch from a running split; the branch drains
//	    its in-flight items and ends with a clean end of stream.
//
//	ipctl edit attach -op host:port [-deployment NAME] -split TEE [-place N] -stages name=kind:arg:...,name2=kind2,...
//	    Grow a running split by one branch built from catalog specs (the
//	    operator needs a catalog, Operator.WithCatalog); -place -1 (the
//	    default) inherits the trunk's shard.
//
//	ipctl edit insert -op host:port [-deployment NAME] -from A -to B -stage name=kind:arg:...
//	    Splice a catalog-built stage into the live edge A >> B.
//
//	ipctl edit swap -op host:port [-deployment NAME] -node NAME -stage name=kind:arg:...
//	    Replace a stage's implementation in place at a pump-cycle boundary.
//
// Unreachable nodes are reported per row instead of failing the whole
// command; every call carries the client's default deadline, so a wedged
// node cannot hang the tool.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"time"

	"infopipes"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: ipctl ping|health|stats|tenants|top|watch -nodes host:port,... [flags]\n       ipctl nodes -op host:port\n       ipctl drain <node> -op host:port\n       ipctl replace -op host:port [-deployment NAME] [-move seg=node,...]\n       ipctl edit tenant|attach|detach|insert|swap -op host:port [flags]")
		os.Exit(2)
	}
	cmd := os.Args[1]
	args := os.Args[2:]
	verb := ""
	if cmd == "edit" {
		if len(args) == 0 || strings.HasPrefix(args[0], "-") {
			fmt.Fprintln(os.Stderr, "usage: ipctl edit tenant|attach|detach|insert|swap -op host:port [flags]")
			os.Exit(2)
		}
		verb, args = args[0], args[1:]
	}
	if cmd == "drain" {
		if len(args) == 0 || strings.HasPrefix(args[0], "-") {
			fmt.Fprintln(os.Stderr, "usage: ipctl drain <node> -op host:port")
			os.Exit(2)
		}
		verb, args = args[0], args[1:]
	}
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	nodes := fs.String("nodes", "", "comma-separated control addresses")
	prefix := fs.String("prefix", "", "pipeline name prefix filter (stats, top, watch)")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval (top, watch)")
	count := fs.Int("count", 0, "refreshes before exiting, 0 = run until interrupted (top, watch)")
	op := fs.String("op", "", "deployment operator address (replace, edit, nodes, drain; optional for watch)")
	deployment := fs.String("deployment", "", "deployment name; optional when the operator serves one (replace, edit)")
	move := fs.String("move", "", "comma-separated segment=nodeIndex moves (replace)")
	split := fs.String("split", "", "split tee name (edit attach, edit detach)")
	port := fs.Int("port", -1, "split out-port to detach (edit detach)")
	place := fs.Int("place", -1, "shard/node hint for the new branch, -1 inherits the trunk's (edit attach)")
	stages := fs.String("stages", "", "comma-separated branch stage specs name=kind:arg:... (edit attach)")
	stage := fs.String("stage", "", "stage spec name=kind:arg:... (edit insert, edit swap)")
	from := fs.String("from", "", "edge tail stage (edit insert)")
	to := fs.String("to", "", "edge head stage (edit insert)")
	node := fs.String("node", "", "stage to replace in place (edit swap)")
	weight := fs.Int("weight", 0, "new weighted-fair share, 0 keeps (edit tenant)")
	rate := fs.Float64("rate", -1, "new admission items/sec, 0 unlimited, unset keeps (edit tenant)")
	burst := fs.Int("burst", 1, "admission burst alongside -rate (edit tenant)")
	prio := fs.String("prio", "", "pump priority high|normal|low, unset keeps (edit tenant)")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	var err error
	if cmd == "replace" || cmd == "edit" || cmd == "nodes" || cmd == "drain" {
		if *op == "" {
			fmt.Fprintf(os.Stderr, "ipctl: %s needs -op host:port\n", cmd)
			os.Exit(2)
		}
	}
	switch {
	case cmd == "nodes":
		err = clusterNodes(*op)
	case cmd == "drain":
		err = drainNode(*op, verb)
	case cmd == "replace":
		err = replace(*op, *deployment, *move)
	case cmd == "edit":
		err = edit(*op, *deployment, verb, editFlags{
			split: *split, port: *port, place: *place, stages: *stages, stage: *stage,
			from: *from, to: *to, node: *node,
			weight: *weight, rate: *rate, burst: *burst, prio: *prio,
		})
	default:
		if *nodes == "" {
			fmt.Fprintln(os.Stderr, "ipctl: -nodes is required")
			os.Exit(2)
		}
		addrs := strings.Split(*nodes, ",")
		switch cmd {
		case "ping":
			err = ping(addrs)
		case "health":
			err = health(addrs)
		case "stats":
			err = stats(addrs, *prefix)
		case "tenants":
			err = tenants(addrs)
		case "top":
			err = top(addrs, *prefix, *interval, *count)
		case "watch":
			err = watch(addrs, *op, *prefix, *interval, *count)
		default:
			err = fmt.Errorf("unknown subcommand %q", cmd)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ipctl:", err)
		os.Exit(1)
	}
}

// dial connects to every address; a failed dial yields a nil client with
// the error reported per row by the callers.
func dial(addrs []string) ([]*infopipes.RemoteClient, []error) {
	clients := make([]*infopipes.RemoteClient, len(addrs))
	errs := make([]error, len(addrs))
	for i, addr := range addrs {
		clients[i], errs[i] = infopipes.DialNode(strings.TrimSpace(addr))
	}
	return clients, errs
}

func ping(addrs []string) error {
	clients, errs := dial(addrs)
	for i, addr := range addrs {
		if errs[i] != nil {
			fmt.Printf("%-24s UNREACHABLE  %v\n", addr, errs[i])
			continue
		}
		name, err := clients[i].Ping()
		if err != nil {
			fmt.Printf("%-24s UNREACHABLE  %v\n", addr, err)
			continue
		}
		fmt.Printf("%-24s ok  node=%s\n", addr, name)
	}
	return nil
}

func health(addrs []string) error {
	clients, errs := dial(addrs)
	return healthWith(clients, errs, addrs)
}

func healthWith(clients []*infopipes.RemoteClient, errs []error, addrs []string) error {
	fmt.Printf("%-24s %-12s %10s %12s %12s\n", "addr", "node", "pipelines", "switches", "uptime")
	for i, addr := range addrs {
		if errs[i] != nil {
			fmt.Printf("%-24s %-12s %s\n", addr, "-", "UNREACHABLE")
			continue
		}
		h, err := clients[i].Health()
		if err != nil {
			fmt.Printf("%-24s %-12s %s\n", addr, "-", "UNREACHABLE")
			continue
		}
		fmt.Printf("%-24s %-12s %10d %12d %12s\n", addr, h.Node, h.Pipelines, h.Switches,
			time.Duration(h.UptimeNanos).Truncate(time.Second))
	}
	return nil
}

func stats(addrs []string, prefix string) error {
	clients, errs := dial(addrs)
	return statsWith(clients, errs, addrs, prefix)
}

func statsWith(clients []*infopipes.RemoteClient, errs []error, addrs []string, prefix string) error {
	fmt.Printf("%-12s %-36s %12s %12s %10s %-6s\n", "node", "pipeline", "items", "cycles", "busy_ms", "state")
	for i, addr := range addrs {
		if errs[i] != nil {
			fmt.Printf("%-12s %s\n", addr, "UNREACHABLE")
			continue
		}
		name, err := clients[i].Ping()
		if err != nil {
			fmt.Printf("%-12s %s\n", addr, "UNREACHABLE")
			continue
		}
		rows, err := clients[i].Stats(prefix)
		if err != nil {
			fmt.Printf("%-12s %s\n", name, "UNREACHABLE")
			continue
		}
		sort.Slice(rows, func(a, b int) bool { return rows[a].Name < rows[b].Name })
		for _, row := range rows {
			state := "live"
			switch {
			case row.Err != "":
				state = "FAILED"
			case row.EOS:
				state = "done"
			}
			fmt.Printf("%-12s %-36s %12d %12d %10d %-6s\n",
				name, row.Name, row.Items, row.Cycles, row.BusyNanos/1e6, state)
		}
	}
	return nil
}

// tenants prints each node's QoS tenant rollups, one row per
// (node, tenant), nodes in address order and tenants sorted by name (the
// node already answers sorted; re-sorting keeps the display stable even
// against older nodes).
func tenants(addrs []string) error {
	clients, errs := dial(addrs)
	fmt.Printf("%-12s %-20s %6s %12s %12s %12s %6s\n",
		"node", "tenant", "weight", "admitted", "sheds", "debt", "share")
	for i, addr := range addrs {
		if errs[i] != nil {
			fmt.Printf("%-12s %s\n", addr, "UNREACHABLE")
			continue
		}
		name, err := clients[i].Ping()
		if err != nil {
			fmt.Printf("%-12s %s\n", addr, "UNREACHABLE")
			continue
		}
		rows, err := clients[i].Tenants()
		if err != nil {
			fmt.Printf("%-12s %s\n", name, "UNREACHABLE")
			continue
		}
		sort.Slice(rows, func(a, b int) bool { return rows[a].Name < rows[b].Name })
		for _, row := range rows {
			share := 0.0
			if row.SchedCycles > 0 {
				share = float64(row.Granted) / float64(row.SchedCycles)
			}
			fmt.Printf("%-12s %-20s %6d %12d %12d %12d %6.2f\n",
				name, row.Name, row.Weight, row.Admitted, row.Sheds, row.CreditDebt, share)
		}
		if len(rows) == 0 {
			fmt.Printf("%-12s %-20s\n", name, "(no tenants)")
		}
	}
	return nil
}

// watch polls the cluster and prints only transitions: a node going
// unreachable or coming back, a pipeline appearing, finishing, or failing.
// The quiet steady state prints nothing, which is what makes a failover —
// DOWN, a burst of pipeline starts elsewhere, done — readable as a story.
func watch(addrs []string, opAddr, prefix string, interval time.Duration, count int) error {
	clients, errs := dial(addrs)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	up := make([]bool, len(addrs))
	first := true
	type pipeKey struct{ node, name string }
	states := make(map[pipeKey]string)
	stamp := func() string { return time.Now().Format(time.TimeOnly) }
	var opc *infopipes.OperatorClient
	cursor := 0
	for n := 0; count == 0 || n < count; n++ {
		if n > 0 {
			select {
			case <-sig:
				return nil
			case <-time.After(interval):
			}
		}
		// Membership tail: JOIN/DRAIN/LEAVE from the cluster's event log,
		// cursored so each transition prints exactly once.
		if opAddr != "" {
			if opc == nil {
				opc, _ = infopipes.DialOperator(opAddr)
			}
			if opc != nil {
				evs, err := opc.ClusterEvents(cursor)
				if err != nil {
					opc.Close()
					opc = nil // re-dial next round; the cursor keeps our place
				}
				for _, ev := range evs {
					fmt.Printf("%s %-5s node=%s %s\n", stamp(), ev.Kind, ev.Node, ev.Detail)
					cursor = ev.Seq
				}
			}
		}
		for i, addr := range addrs {
			if errs[i] != nil {
				// A failed initial dial keeps being retried: the node may
				// simply not be up yet.
				clients[i], errs[i] = infopipes.DialNode(strings.TrimSpace(addr))
			}
			name, err := "", errs[i]
			if err == nil {
				name, err = clients[i].Ping()
				if err != nil {
					// A poisoned client fails every later call; re-dial so
					// recovery is observable.
					_ = clients[i].Reconnect()
				}
			}
			if reachable := err == nil; reachable != up[i] || first {
				if reachable {
					fmt.Printf("%s UP    %-24s node=%s\n", stamp(), addr, name)
				} else {
					fmt.Printf("%s DOWN  %-24s %v\n", stamp(), addr, err)
				}
				up[i] = reachable
			}
			if err != nil {
				continue
			}
			rows, err := clients[i].Stats(prefix)
			if err != nil {
				continue
			}
			for _, row := range rows {
				state := "live"
				switch {
				case row.Err != "":
					state = "FAILED " + row.Err
				case row.EOS:
					state = "done"
				}
				k := pipeKey{name, row.Name}
				if prev, seen := states[k]; !seen || prev != state {
					fmt.Printf("%s PIPE  %-12s %-36s %s (items=%d)\n", stamp(), name, row.Name, state, row.Items)
					states[k] = state
				}
			}
		}
		first = false
	}
	return nil
}

// nodeTable prints cluster membership rows.
func nodeTable(rows []infopipes.OperatorNode) {
	fmt.Printf("%5s %-12s %-24s %-8s %9s\n", "index", "node", "addr", "state", "segments")
	for _, r := range rows {
		state := "up"
		switch {
		case r.Left:
			state = "left"
		case !r.Healthy:
			state = "down"
		}
		fmt.Printf("%5d %-12s %-24s %-8s %9d\n", r.Index, r.Name, r.Addr, state, r.Hosts)
	}
}

// clusterNodes prints the membership table from an elastic-wired operator.
func clusterNodes(opAddr string) error {
	c, err := infopipes.DialOperator(opAddr)
	if err != nil {
		return err
	}
	defer c.Close()
	rows, err := c.Nodes()
	if err != nil {
		return err
	}
	nodeTable(rows)
	return nil
}

// drainNode migrates every segment off a node through the cluster's
// loss-free drain and prints the membership table afterwards.
func drainNode(opAddr, node string) error {
	c, err := infopipes.DialOperator(opAddr)
	if err != nil {
		return err
	}
	defer c.Close()
	rows, err := c.DrainNode(node)
	if err != nil {
		return err
	}
	fmt.Printf("drained %s\n", node)
	nodeTable(rows)
	return nil
}

// replace drives a deployment's operator endpoint: move segments per -move,
// or just print the current placements when no moves are given.
func replace(opAddr, deployment, move string) error {
	c, err := infopipes.DialOperator(opAddr)
	if err != nil {
		return err
	}
	defer c.Close()
	hints := make(map[string]int)
	if move != "" {
		for _, m := range strings.Split(move, ",") {
			seg, node, ok := strings.Cut(strings.TrimSpace(m), "=")
			if !ok {
				return fmt.Errorf("bad -move entry %q, want segment=nodeIndex", m)
			}
			idx, err := strconv.Atoi(strings.TrimSpace(node))
			if err != nil {
				return fmt.Errorf("bad node index in -move entry %q: %v", m, err)
			}
			hints[strings.TrimSpace(seg)] = idx
		}
	}
	var placed map[string]int
	if len(hints) > 0 {
		if placed, err = c.Replace(deployment, hints); err != nil {
			return err
		}
		fmt.Printf("moved %d segment(s)\n", len(hints))
	} else if placed, err = c.Placements(deployment); err != nil {
		return err
	}
	segs := make([]string, 0, len(placed))
	for seg := range placed {
		segs = append(segs, seg)
	}
	sort.Strings(segs)
	fmt.Printf("%-36s %s\n", "segment", "node")
	for _, seg := range segs {
		fmt.Printf("%-36s %4d\n", seg, placed[seg])
	}
	return nil
}

// editFlags carries the parsed edit-verb flags into the op builder.
type editFlags struct {
	split, stages, stage, from, to, node, prio string
	port, place, weight, burst                 int
	rate                                       float64
}

// parseStageSpecs turns "name=kind:arg:...,name2=kind2" into operator stage
// specs; args after the kind are colon-separated.
func parseStageSpecs(s string) ([]infopipes.OperatorStage, error) {
	var specs []infopipes.OperatorStage
	for _, one := range strings.Split(s, ",") {
		name, rest, ok := strings.Cut(strings.TrimSpace(one), "=")
		if !ok || name == "" || rest == "" {
			return nil, fmt.Errorf("bad stage spec %q, want name=kind:arg:...", one)
		}
		parts := strings.Split(rest, ":")
		specs = append(specs, infopipes.OperatorStage{Name: name, Kind: parts[0], Args: parts[1:]})
	}
	return specs, nil
}

// edit builds one live-edit operation from the verb and flags and applies it
// through the deployment's operator endpoint.
func edit(opAddr, deployment, verb string, f editFlags) error {
	var e infopipes.OperatorEdit
	switch verb {
	case "tenant":
		e = infopipes.OperatorEdit{Kind: "rebind", Weight: f.weight}
		if f.rate >= 0 {
			e.Rate, e.Burst, e.SetRate = f.rate, f.burst, true
		}
		switch f.prio {
		case "":
		case "high":
			e.Prio, e.SetPrio = int(infopipes.PriorityHigh), true
		case "normal":
			e.Prio, e.SetPrio = int(infopipes.PriorityNormal), true
		case "low":
			e.Prio, e.SetPrio = int(infopipes.PriorityLow), true
		default:
			return fmt.Errorf("bad -prio %q, want high|normal|low", f.prio)
		}
		if e.Weight == 0 && !e.SetRate && !e.SetPrio {
			return fmt.Errorf("edit tenant: nothing to change (set -weight, -rate or -prio)")
		}
	case "detach":
		if f.split == "" || f.port < 0 {
			return fmt.Errorf("edit detach needs -split and -port")
		}
		e = infopipes.OperatorEdit{Kind: "detach", Split: f.split, Port: f.port}
	case "attach":
		if f.split == "" || f.stages == "" {
			return fmt.Errorf("edit attach needs -split and -stages")
		}
		specs, err := parseStageSpecs(f.stages)
		if err != nil {
			return err
		}
		e = infopipes.OperatorEdit{Kind: "attach", Split: f.split, Place: f.place, Stages: specs}
	case "insert":
		if f.from == "" || f.to == "" || f.stage == "" {
			return fmt.Errorf("edit insert needs -from, -to and -stage")
		}
		specs, err := parseStageSpecs(f.stage)
		if err != nil {
			return err
		}
		e = infopipes.OperatorEdit{Kind: "insert", From: f.from, To: f.to, Stages: specs}
	case "swap":
		if f.node == "" || f.stage == "" {
			return fmt.Errorf("edit swap needs -node and -stage")
		}
		specs, err := parseStageSpecs(f.stage)
		if err != nil {
			return err
		}
		e = infopipes.OperatorEdit{Kind: "swap", Node: f.node, Stages: specs}
	default:
		return fmt.Errorf("unknown edit verb %q, want tenant|attach|detach|insert|swap", verb)
	}
	c, err := infopipes.DialOperator(opAddr)
	if err != nil {
		return err
	}
	defer c.Close()
	placed, err := c.Edit(deployment, []infopipes.OperatorEdit{e})
	if err != nil {
		return err
	}
	fmt.Printf("edit %s applied\n", verb)
	segs := make([]string, 0, len(placed))
	for seg := range placed {
		segs = append(segs, seg)
	}
	sort.Strings(segs)
	fmt.Printf("%-36s %s\n", "segment", "node")
	for _, seg := range segs {
		fmt.Printf("%-36s %4d\n", seg, placed[seg])
	}
	return nil
}

func top(addrs []string, prefix string, interval time.Duration, count int) error {
	clients, errs := dial(addrs)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	for n := 0; count == 0 || n < count; n++ {
		if n > 0 {
			select {
			case <-sig:
				return nil
			case <-time.After(interval):
			}
		}
		fmt.Printf("--- %s ---\n", time.Now().Format(time.TimeOnly))
		if err := healthWith(clients, errs, addrs); err != nil {
			return err
		}
		if err := statsWith(clients, errs, addrs, prefix); err != nil {
			return err
		}
	}
	return nil
}
