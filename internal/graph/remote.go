package graph

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"sync"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/events"
	"infopipes/internal/netpipe"
	"infopipes/internal/qos"
	"infopipes/internal/remote"
	"infopipes/internal/typespec"
)

// NodesTarget deploys a spec-backed graph onto remote nodes (§2.4 remote
// setup, driven by the deployer): each segment is composed on one node
// through the control protocol, tees are shared between a node's pipelines
// via the idempotent ip/ factories, and cross-node edges become TCP
// netpipes.  Segments compose in topological order, each carrying its
// upstream's resolved Typespec, so §2.3 flow checking spans nodes and a
// mistyped cross-node edge fails at deploy.  Prepare every node with
// EnableNode.
type NodesTarget struct {
	// Clients are the nodes' control clients.  Deploy copies the list: a
	// deployment that grows (AddNode) never touches its target.
	Clients []*remote.Client
	// ClusterLanes makes every cut edge a durable TCP lane, even within one
	// node: it parks on a bare connection EOF and its sender can be
	// redialed, the contract Deployment.Rebalance needs to move a segment
	// between nodes.  Items are journaled until acknowledged and
	// deduplicated on the receiver, so a redial or failover resumes the
	// stream with zero loss and zero duplication.
	ClusterLanes bool
	// Tenant binds the deployment to a QoS tenant (nil = default tenant).
	// Every node hosting a segment materializes the tenant locally:
	// weighted-fair scheduling against the node's other tenants, admission
	// control at true sources, and the tenant's priority on the lanes of
	// split ports and merge relays — the same isolation contract as
	// SchedulerTarget.WithTenant, spanning nodes.
	Tenant *qos.Tenant
}

// OnNodes targets remote nodes through their control clients.
func OnNodes(clients ...*remote.Client) *NodesTarget {
	return &NodesTarget{Clients: clients}
}

// WithClusterLanes enables re-placeable, durable lanes (see ClusterLanes).
func (t *NodesTarget) WithClusterLanes() *NodesTarget {
	t.ClusterLanes = true
	return t
}

// WithTenant binds the deployment to a QoS tenant (see Tenant).
func (t *NodesTarget) WithTenant(tn *qos.Tenant) *NodesTarget {
	t.Tenant = tn
	return t
}

func (t *NodesTarget) deploy(g *Graph, plan *core.GraphPlan) (*Deployment, error) {
	if len(t.Clients) == 0 {
		return nil, fmt.Errorf("graph %q: no nodes to deploy onto", g.name)
	}
	for _, n := range g.nodes {
		if n.spec == nil {
			return nil, fmt.Errorf("%w: %q — remote deployment needs AddSpec/SplitSpec/MergeSpec throughout",
				errNotSpecBacked, n.name)
		}
	}

	// Placement: hints, tee-neighbour inheritance, then round-robin.
	cursor := 0
	fromPolicy := func() int {
		i := cursor % len(t.Clients)
		cursor++
		return i
	}
	nodeOf, err := resolvePlacement(g, plan, len(t.Clients), "node", fromPolicy)
	if err != nil {
		return nil, err
	}

	r := &remoteDeployment{opt: *t,
		clients:        slices.Clone(t.Clients),
		names:          make([]string, len(t.Clients)),
		gone:           make([]bool, len(t.Clients)),
		segSections:    make([]int, len(plan.Segments)),
		caps:           new(capSets),
		lastRows:       make(map[int]map[string]remote.PipeStat),
		lastTenantRows: make(map[int]remote.TenantStat)}
	d := newDeployment(g.name, nil, r)
	r.setup(r, d, g, plan, nodeOf)
	r.opt.Clients = nil // r.clients is the deployment's only client list
	for i, c := range r.clients {
		if r.names[i], err = c.Ping(); err != nil {
			return nil, fmt.Errorf("graph %q: node %d: %w", g.name, i, err)
		}
	}
	for _, si := range plan.Order {
		if err = r.place(si); err != nil {
			break
		}
	}
	// The graph-wide §2.3 event-capability check spans every node: each
	// compose reply carried its pipeline's sets, so an event emitted on one
	// node still counts as handled when its handler was composed on another.
	if err == nil {
		if err = core.CheckEventCoverage(r.caps.sends, r.caps.handles); err != nil {
			err = fmt.Errorf("graph %q: %w", g.name, err)
		}
	}
	if err != nil {
		r.abort()
		return nil, err
	}
	r.caps = nil
	return d, nil
}

// abort best-effort-undoes a partial deployment, or frees a finished one:
// every node stops and drops this graph's pipelines, tees, lanes and cut
// buffers, so a retry or a redeploy starts clean.
func (r *remoteDeployment) abort() {
	for _, c := range r.clients {
		_, _ = c.Lane(remote.LaneRequest{Kind: remote.LaneAbort, Prefix: r.name + "/"})
	}
}

// The node host: the parts below render the wire specs of a segment or a
// relay — the only place they are spelled out, so a deploy and a move render
// the same pipeline the same way.  tee renders a shared-tee boundary: the
// node keys the shared instance by graph-prefixed name, so an aborted
// deployment's tees cannot leak into a retry (and two graphs may use the
// same tee name).  A split's sink names each port that is a lane and its
// listener: the node makes that port the lane's sending end.
func (r *remoteDeployment) tee(e core.SegmentEnd) remote.StageSpec {
	n := r.g.index[e.Node]
	spec := remote.StageSpec{Params: make(map[string]string, len(n.spec.Params)+6)}
	maps.Copy(spec.Params, n.spec.Params)
	spec.Params["tee"], spec.Params["merge"], spec.Params["graph"] = e.Node, e.Node, r.name
	if n.kind == nSplit {
		spec.Params["kind"] = n.spec.Kind
		spec.Params["outs"] = strconv.Itoa(n.outs)
	} else {
		spec.Params["ins"] = strconv.Itoa(n.ins)
	}
	switch e.Kind {
	case core.EndSplitOut:
		spec.Kind, spec.Name = "ip/teeout", fmt.Sprintf("%s.src%d", e.Node, e.Port)
	case core.EndSplitTrunk:
		spec.Kind, spec.Name = "ip/teesink", e.Node
		for port, lane := range r.portLanes(e.Node) {
			if lane != "" {
				spec.Params["lane."+strconv.Itoa(port)] = lane
				spec.Params["addr."+strconv.Itoa(port)] = r.links[lane].addr
			}
		}
		// Cluster lanes journal on the sender, and the tenant's priority
		// crosses with the items (the trunk's pump runs at its own).
		if r.opt.ClusterLanes {
			spec.Params["durable"] = "1"
		}
		if t := r.opt.Tenant; t != nil {
			spec.Params["prio"] = strconv.Itoa(int(t.Priority()))
		}
	case core.EndMergeIn:
		spec.Kind, spec.Name = "ip/mergein", fmt.Sprintf("%s.in%d", e.Node, e.Port)
	default:
		spec.Kind, spec.Name = "ip/mergeout", e.Node+".src"
	}
	if e.Kind == core.EndSplitOut || e.Kind == core.EndMergeIn {
		spec.Params["port"] = strconv.Itoa(e.Port)
	}
	return spec
}

func (r *remoteDeployment) stage(name string) remote.StageSpec {
	n := r.g.index[name]
	return remote.StageSpec{Kind: n.spec.Kind, Name: n.name, Args: n.spec.Args, Params: n.spec.Params}
}

// nodeLink is how the node host realized a link: a TCP lane whose listener
// answers at addr ("" while a move has it unbound), or a same-node cut
// buffer the nodes' ip/cut* factories share by lane name.
type nodeLink struct {
	addr  string
	local bool
}

func (r *remoteDeployment) recv(lane string, l nodeLink) []remote.StageSpec {
	params := map[string]string{"lane": lane}
	if l.local {
		return []remote.StageSpec{{Kind: "ip/cutsrc", Name: lane + "/source", Params: params}}
	}
	return []remote.StageSpec{
		{Kind: "ip/tcprecv", Name: lane + "/source", Params: params},
		{Kind: "ip/unmarshal", Name: lane + "/unmarshal"},
	}
}

// send renders the sender tail of a lane, dialing its bound listener.
// Cluster lanes journal on the sender, and chain their acks (see
// chainLane).
func (r *remoteDeployment) send(lane string, l nodeLink, from int) []remote.StageSpec {
	if l.local {
		return []remote.StageSpec{{Kind: "ip/cutsink", Name: lane + "/sink", Params: map[string]string{"lane": lane}}}
	}
	params := map[string]string{"addr": l.addr, "lane": lane}
	if r.opt.ClusterLanes {
		params["durable"] = "1"
		if chain := r.chainLane(from); chain != "" {
			params["chain"] = chain
		}
	}
	return []remote.StageSpec{
		{Kind: "ip/marshal", Name: lane + "/marshal"},
		{Kind: "ip/tcpsend", Name: lane + "/sink", Params: params},
	}
}

// ErrNonBlockingSplit refuses a split whose push policy does not block when
// one of its ports is a lane: a lane's sending end blocks, so the policy
// has no lane form.
var ErrNonBlockingSplit = errors.New("graph: a split that does not block on push has no lane port")

// place wires segment si on its node, records the wire Typespec entering
// each lane of the split it feeds, and composes the relay of a merge
// in-port that is a lane just after it.  When it fails it drops the
// listeners it bound.
func (r *remoteDeployment) place(si int) (err error) {
	seg, out := r.plan.Segments[si], r.outLane(si)
	fresh, err := r.bind(si)
	defer func() {
		if err != nil {
			for _, e := range fresh {
				r.unlink(e.lane, e.to)
				r.links[e.lane] = nodeLink{}
			}
		}
	}()
	if err == nil {
		err = r.composeSegment(si)
	}
	if t := seg.Tail; err == nil && t.Kind == core.EndSplitTrunk {
		wire := netpipe.NewMarshalFilter(t.Node+"/marshal", nil).TransformSpec(r.segOutSpec[si])
		for _, lane := range r.portLanes(t.Node) {
			if lane != "" {
				r.laneSeed[lane] = wire
			}
		}
	}
	if t := seg.Tail; err == nil && t.Kind == core.EndMergeIn && out != "" {
		err = r.relay(t, r.slotOf[r.plan.MergeDown[t.Node]], r.laneSeed[out])
	}
	return err
}

// relay composes the relay of merge in-port e, a lane, beside its merge on
// node at, unless it runs there already, and records the Typespec entering
// the in-port.
func (r *remoteDeployment) relay(e core.SegmentEnd, at int, seed typespec.Typespec) error {
	lane := r.laneName(e.Node, e.Port)
	if r.hostOf(lane+"/relay") == at {
		return nil
	}
	parts := r.relayParts(e)
	specs, err := r.compose(lane+"/relay", at, -1, parts, seed, false)
	if err == nil {
		r.mergeInSpec[e.Node][e.Port] = specAt(specs, len(parts)-2)
	}
	return err
}

// relayParts renders the relay of merge in-port e: a pump, free-running at
// the tenant's priority, pumps the lane into the in-port, so the tenant's
// priority crosses the lane with its items.
func (r *remoteDeployment) relayParts(e core.SegmentEnd) []remote.StageSpec {
	lane := r.laneName(e.Node, e.Port)
	pump := remote.StageSpec{Kind: "ip/pump", Name: lane + "/pump"}
	if t := r.opt.Tenant; t != nil {
		pump.Params = map[string]string{"prio": strconv.Itoa(int(t.Priority()))}
	}
	return append(r.recv(lane, r.links[lane]), pump, r.tee(e))
}

// apart tells nodes apart: each is its own address space.
func (r *remoteDeployment) apart(a, b int) bool { return a != b }

// chainLane returns the inbound lane that segment si's outbound sender
// forwards its acks to — non-empty only when both boundary lanes are
// durable.  Chaining keeps the UPSTREAM journal covering everything that
// has not cleared the lane BELOW si, which makes losing si (and everything
// in flight through it) recoverable by replay.
func (r *remoteDeployment) chainLane(si int) string {
	if r.opt.ClusterLanes && r.outLane(si) != "" {
		return r.inLane(si)
	}
	return ""
}

// tenantSpec renders the deployment's tenant as a wire spec (nil for the
// default tenant); each node materializes a tenant once, keyed by name.
func (r *remoteDeployment) tenantSpec() *remote.TenantSpec {
	t := r.opt.Tenant
	if t == nil {
		return nil
	}
	return &remote.TenantSpec{Name: t.Name(), Weight: t.Weight(),
		Rate: t.Rate(), Burst: t.Burst(),
		Shed: int(t.ShedPolicy()), Prio: int(t.Priority())}
}

// link pre-binds the rendezvous listener of a lane on the node of its
// receiving segment, so the sender knows the address before the receiver
// exists; a bound lane stays (a move redials its sender instead).  Cluster
// lanes are durable, and a listener whose segment sends on into another
// one is chained (see chainLane).  Without cluster lanes a cut within one
// node is a same-node cut buffer.
func (r *remoteDeployment) link(lane string, l nodeLink, from, to int) (nodeLink, error) {
	if l != (nodeLink{}) {
		return l, nil
	}
	if t := r.plan.Segments[from].Tail; t.Kind == core.EndSplitTrunk { // a lane port of split t
		if _, push, _, err := teeBufferParams(r.g.index[t.Node].spec.Params); err == nil && push != typespec.Block {
			return l, fmt.Errorf("%w: split %q, lane %q", ErrNonBlockingSplit, t.Node, lane)
		}
	}
	if !r.opt.ClusterLanes && r.slotOf[from] == r.slotOf[to] {
		return nodeLink{local: true}, nil
	}
	node := r.slotOf[to]
	rep, err := r.clients[node].Lane(remote.LaneRequest{Kind: remote.LaneListen, Lane: lane,
		Durable: r.opt.ClusterLanes, Chained: r.chainLane(to) == lane})
	if err != nil {
		return l, fmt.Errorf("graph %q: node %d: listen %q: %w", r.name, node, lane, err)
	}
	return nodeLink{addr: rep.Addr}, nil
}

// unlink drops a listener a failed placement bound: each is a port and a
// scheduler external-source reference.
func (r *remoteDeployment) unlink(lane string, to int) {
	if !r.links[lane].local {
		_, _ = r.clients[r.slotOf[to]].Lane(remote.LaneRequest{
			Kind: remote.LaneDrop, Lane: lane, Side: remote.ListenerSide})
	}
}

// compose sends one pipeline to a node, seeded with the upstream Typespec,
// and records where it runs.  The deploy checks event capabilities
// graph-wide from the sets the replies carry; the node gates an admitted
// source with the tenant's admission control.
func (r *remoteDeployment) compose(name string, node, seg int, specs []remote.StageSpec, seed typespec.Typespec, admit bool) ([]typespec.Typespec, error) {
	rep, err := r.clients[node].ComposeTenantSegment(name, specs, seed, r.tenantSpec(), admit && r.opt.Tenant != nil)
	if err != nil {
		return nil, fmt.Errorf("graph %q: node %d: compose %q: %w", r.name, node, name, err)
	}
	if c := r.caps; c != nil {
		for _, t := range rep.Sends {
			c.sends = append(c.sends, events.Type(t))
		}
		for _, t := range rep.Handles {
			c.handles = append(c.handles, events.Type(t))
		}
	}
	if seg >= 0 {
		r.segSections[seg] = rep.Sections
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if i := r.pipeIndex(name); i >= 0 {
		r.pipes[i].client = node
	} else {
		r.pipes = append(r.pipes, remotePipe{client: node, name: name, seg: seg})
	}
	return rep.Specs, nil
}

// pipeIndex finds a pipeline's record by name (-1 for none); mu is held.
func (r *remoteDeployment) pipeIndex(name string) int {
	return slices.IndexFunc(r.pipes, func(p remotePipe) bool { return p.name == name })
}

// hostOf returns the node a pipeline was last composed on, -1 for none.
func (r *remoteDeployment) hostOf(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i := r.pipeIndex(name); i >= 0 {
		return r.pipes[i].client
	}
	return -1
}

// capSets are the events some set of pipelines emits and handles.
type capSets struct{ sends, handles []events.Type }

// remotePipe names one pipeline composed on one node.
type remotePipe struct {
	client int
	name   string
	seg    int // plan segment index, -1 for relay pipelines
}

// remoteDeployment is the node host, and a graph deployed onto remote
// nodes: the wiring the deploy recorded (Stats and every move go on to use
// it; slotOf, the node by segment, is written under d.mu) and the run state.
type remoteDeployment struct {
	wiring[remote.StageSpec, nodeLink]
	// opt holds the target's settings as they were at deploy time; its
	// Clients is nil — clients below is the deployment's own list.
	opt     NodesTarget
	clients []*remote.Client
	names   []string // node names by client index (ping at deploy)
	pipes   []remotePipe

	// segSections[i] is the pump-driven section count of segment i's
	// composed pipeline (buffers add sections; see movable).
	segSections []int
	// caps collects the event-capability sets the compose replies carry
	// while the deploy runs; nil once its graph-wide check has passed.
	caps *capSets

	mu sync.Mutex
	// gone[i] marks node i as drained and departed (elastic leave): it keeps
	// its index, but broadcasts and rebinds skip it.  Copy-on-write under
	// mu, like clients/names (see clientSnap).
	gone []bool
	// supervised deployments treat an unreachable node as PENDING instead
	// of fatal: elastic.Cluster fails its segments over or latches via Fail.
	supervised bool
	// lastRows and lastTenantRows cache each node's last answers, for the
	// snapshots that cannot reach it (see stats and tenantRows).
	lastRows       map[int]map[string]remote.PipeStat
	lastTenantRows map[int]remote.TenantStat
	// final is the poll that saw the flow finish, once Wait has freed the
	// deployment's state on its nodes: later polls answer from it, and
	// Stats from lastRows.
	final []polledPipe
}

// clientSnap returns the current client list and its gone markers.  Both
// are copy-on-write (AddNode and MarkNodeGone publish fresh slices under
// mu), so a snapshot stays valid lock-free; code under rbMu may read
// r.clients directly.
func (r *remoteDeployment) clientSnap() ([]*remote.Client, []bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.clients, r.gone
}

// broadcast sends ev to the deployment on every node that hosts one of its
// pipelines, past any that fails: a dead node must not keep the nodes after
// it from hearing a stop.  One start or stop op per node reaches all of the
// deployment there, whose pipelines share a bus of their own, and nothing
// else; a pipeline the node no longer knows is passed over for the next.  A
// failed start rolls every reachable node back with a stop and latches the
// error, so Wait and Err report it; a stop is best effort (Wait and Err
// report an unreachable node anyway).
func (r *remoteDeployment) broadcast(ev events.Type) {
	pipes := r.pipeList()
	clients, gone := r.clientSnap() // after pipeList: covers every pipe index
	var first error
	for i, c := range clients {
		op := c.Stop
		if ev == events.Start {
			op = c.Start
		}
		var err error
		for _, p := range pipes {
			if p.client == i && !gone[i] {
				if err = op(p.name); err == nil {
					break
				}
			}
		}
		first = cmp.Or(first, err)
	}
	if first != nil && ev == events.Start {
		r.d.fail(fmt.Errorf("graph %q: start failed, deployment rolled back: %w", r.name, first))
	}
}

// slots reports the node-set size; moves and AddNode hold rbMu, so the
// list is stable under it.
func (r *remoteDeployment) slots() int { return len(r.clients) }

func (r *remoteDeployment) external(fn func()) { fn() }

// pipeList snapshots the pipes under the lock (a move rewrites entries).
func (r *remoteDeployment) pipeList() []remotePipe {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.pipes)
}

// rows fetches one node's telemetry rows for this deployment's pipelines,
// keyed by pipeline name, and records them as the node's last-known rows
// (see lastRows).  The returned map is never mutated afterwards.
func (r *remoteDeployment) rows(c *remote.Client, node int) (map[string]remote.PipeStat, error) {
	nodeRows, err := c.Stats(r.name + "/")
	if err != nil {
		return nil, err
	}
	rows := make(map[string]remote.PipeStat, len(nodeRows))
	for _, row := range nodeRows {
		rows[row.Name] = row
	}
	r.mu.Lock()
	r.lastRows[node] = rows
	r.mu.Unlock()
	return rows, nil
}

// fetch asks every node hosting one of pipes for its rows — one round trip
// per node, however many pipes it hosts — and returns them by node index,
// with the error of each node that did not answer.  Nodes are polled in
// sequence; a dead node costs one call deadline once, then its poisoned
// client fails fast on every later fetch.
func (r *remoteDeployment) fetch(pipes []remotePipe, clients []*remote.Client) (map[int]map[string]remote.PipeStat, map[int]error) {
	r.mu.Lock()
	if r.final != nil { // Wait freed the nodes: their last rows stand
		defer r.mu.Unlock()
		return maps.Clone(r.lastRows), nil
	}
	r.mu.Unlock()
	rows := make(map[int]map[string]remote.PipeStat)
	errs := make(map[int]error)
	for _, p := range pipes {
		if rows[p.client] != nil || errs[p.client] != nil {
			continue
		}
		if nodeRows, err := r.rows(clients[p.client], p.client); err != nil {
			errs[p.client] = err
		} else {
			rows[p.client] = nodeRows
		}
	}
	return rows, errs
}

// polledPipe is one pipe as a poll saw it: seen with its row when its node
// answered and hosts it, otherwise judged by the one rule in poll — pending
// (look again), failed with err, or neither (nobody waits for it).
type polledPipe struct {
	remotePipe
	// tail marks a terminal segment — one whose tail is a true sink
	// (core.EndNone), the end of the information flow.  Relay pipelines
	// (seg < 0) feed tees mid-graph and are never terminal.
	tail    bool
	seen    bool
	row     remote.PipeStat
	pending bool
	err     error
}

// poll is the one place the deployer asks its nodes how the pipelines are
// doing: it snapshots the pipes, then the clients (which only grow, so the
// later snapshot covers every pipe), fetches each hosting node's rows once,
// and judges every pipe that has none — every time, or a dead node's pipes
// would escape the unreachability check and hang a Wait.
func (r *remoteDeployment) poll() []polledPipe {
	r.mu.Lock()
	final := r.final
	r.mu.Unlock()
	if final != nil {
		return final
	}
	r.d.mu.Lock()
	gen := r.d.gen
	r.d.mu.Unlock()
	pipes := r.pipeList()
	clients, _ := r.clientSnap()
	rows, errs := r.fetch(pipes, clients)
	// A move in flight at any point of the poll (hence the generation) may
	// have left a pipe missing from the node the snapshot places it on.
	r.d.mu.Lock()
	rewiring := r.d.moving || r.d.gen != gen
	r.d.mu.Unlock()
	r.mu.Lock()
	supervised := r.supervised
	r.mu.Unlock()
	out := make([]polledPipe, len(pipes))
	for i, p := range pipes {
		pp := polledPipe{remotePipe: p,
			tail: p.seg >= 0 && r.plan.Segments[p.seg].Tail.Kind == core.EndNone}
		lost := errs[p.client]
		if lost == nil {
			if pp.row, pp.seen = rows[p.client][p.name]; !pp.seen {
				lost = fmt.Errorf("%w: %q", remote.ErrUnknownPipeline, p.name)
			}
		}
		switch {
		case pp.seen:
		case rewiring:
			pp.pending = true // the next poll sees it where the move put it
		case supervised && errors.Is(lost, remote.ErrNodeUnreachable):
			// A node died under supervision, and the supervisor owns that:
			// it either fails the node's segments over to survivors (and the
			// poll heals) or latches a terminal error via Fail.  The node's
			// NON-terminal pipes don't block completion: either the stream
			// is mid-flight — then some reachable pipe downstream is not
			// done — or every reachable pipe already delivered its EOS,
			// which means the flow finished end to end before the node died.
			// An unreachable TERMINAL segment proves nothing, though:
			// upstream journals may still hold items its dead node never
			// consumed, so it stays pending.
			pp.pending = pp.tail
		default:
			pp.err = lost
		}
		out[i] = pp
	}
	return out
}

func (r *remoteDeployment) err() error {
	for _, p := range r.poll() {
		if p.err != nil {
			return p.err
		}
		if p.row.Err != "" {
			return fmt.Errorf("%s: %s", p.name, p.row.Err)
		}
	}
	return nil
}

// wait polls the nodes until every pipeline of the deployment has finished,
// then frees the deployment's pipelines, tees and lanes on every node, so
// the graph's name is free there again.  A failed Start short-circuits with
// the rollback error; an unreachable node surfaces as a wrapped
// remote.ErrNodeUnreachable instead of hanging.
func (r *remoteDeployment) wait() error {
	for {
		if err := r.d.failure(); err != nil {
			return err
		}
		done, reachable := true, 0
		polled := r.poll()
		for _, p := range polled {
			switch {
			case p.err != nil:
				return p.err
			case p.seen:
				reachable++
				done = done && p.row.Done
			default:
				done = done && !p.pending
			}
		}
		if done && reachable > 0 {
			r.mu.Lock()
			r.final = polled
			r.mu.Unlock()
			r.abort()
			return r.d.Err()
		}
		//ipvet:allow wallclock completion poll interval against live remote nodes; their flows run on their own clocks
		time.Sleep(10 * time.Millisecond)
	}
}

// stats folds every hosting node's rows into one GraphStats (Shard = node
// index, names in Nodes).  An unreachable node's pipes fall back to its
// LAST-KNOWN rows: zeros would hand the balancer a false full-history delta
// the moment the node answers again.
func (r *remoteDeployment) stats() GraphStats {
	pipes := r.pipeList()
	clients, _ := r.clientSnap() // after pipeList: covers every pipe index
	rows, errs := r.fetch(pipes, clients)
	r.mu.Lock()
	for node := range errs {
		rows[node] = r.lastRows[node]
	}
	names := slices.Clone(r.names)
	r.mu.Unlock()
	prs := make([]pipeRow, len(pipes))
	for i, p := range pipes {
		row := rows[p.client][p.name]
		prs[i] = pipeRow{name: p.name, seg: p.seg, slot: p.client, ran: p.client, eos: row.EOS,
			counts: counts{row.Items, row.Cycles, row.BusyNanos}}
	}
	st := r.fold(prs, len(clients), r.opt.Tenant, r.tenantRows())
	st.Nodes = names
	return st
}

// tenantRows polls the tenant's rollup on EVERY node, not just the ones
// hosting pipes now (a move leaves admission counters behind); an
// unreachable or departed node contributes its last-known row.
func (r *remoteDeployment) tenantRows() []remote.TenantStat {
	t := r.opt.Tenant
	if t == nil {
		return nil
	}
	var out []remote.TenantStat
	clients, gone := r.clientSnap()
	for node, c := range clients {
		r.mu.Lock()
		row, found := r.lastTenantRows[node]
		r.mu.Unlock()
		if !gone[node] {
			if tenants, err := c.Tenants(); err == nil {
				i := slices.IndexFunc(tenants, func(ts remote.TenantStat) bool { return ts.Name == t.Name() })
				if found = i >= 0; found {
					row = tenants[i]
					r.mu.Lock()
					r.lastTenantRows[node] = row
					r.mu.Unlock()
				}
			}
		}
		if found {
			out = append(out, row)
		}
	}
	return out
}

// rebind applies RebindTenant edit ops to a remote deployment: the
// deployer-side tenant records the new policy, then a §2.4 op retunes each
// node's materialized tenant and weighted-fair class in place.  An
// unreachable node fails the call unless the deployment is supervised —
// there the supervisor owns the node's fate, and a re-placement composes
// against the updated TenantSpec anyway.
func (r *remoteDeployment) rebind(rebinds []RebindTenant) error {
	t := r.opt.Tenant
	if t == nil {
		return ErrNoTenant
	}
	rebind(t, rebinds)
	spec := r.tenantSpec()
	clients, gone := r.clientSnap()
	r.mu.Lock()
	supervised := r.supervised
	r.mu.Unlock()
	for i, c := range clients {
		if gone[i] {
			continue
		}
		if err := c.RebindTenant(*spec); err != nil {
			if supervised && errors.Is(err, remote.ErrNodeUnreachable) {
				continue
			}
			return fmt.Errorf("graph %q: node %d: rebind: %w", r.name, i, err)
		}
	}
	return nil
}
