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
	"infopipes/internal/qos"
	"infopipes/internal/remote"
	"infopipes/internal/typespec"
)

// NodesTarget deploys a spec-backed graph onto remote nodes (§2.4 remote
// setup, driven entirely by the deployer): each segment is composed on one
// node through the control protocol, tees are shared between a node's
// pipelines via the idempotent ip/ factories, and cross-node edges become
// TCP netpipes.  Segments compose in TOPOLOGICAL order — the deployer
// pre-binds every rendezvous listener through the listen lane op before
// the sender dials — so each segment's compose request carries its upstream
// segment's resolved Typespec: §2.3 flow checking spans node boundaries,
// and a mistyped cross-node edge fails at deploy time.  Every target node
// must have been prepared with EnableNode.
type NodesTarget struct {
	// Clients are the nodes' control clients.  Deploy copies the list: a
	// deployment that grows (AddNode) never touches its target.
	Clients []*remote.Client
	// LinkDepth bounds the receive inboxes and same-node cut links
	// (0 = default).
	LinkDepth int
	// ClusterLanes makes every cut edge a durable TCP lane, even when both
	// endpoints land on the same node: a lane parks on a bare connection
	// EOF instead of ending the stream, and its sender can be redialed — the
	// wiring contract Deployment.Replace needs to move a segment between
	// nodes at run time.  Items are sequence-numbered (per merge origin),
	// journaled on the sender until acknowledged, and deduplicated on the
	// receiver, so a redial or failover resumes the stream with zero loss
	// and zero duplication.
	ClusterLanes bool
	// Tenant binds the deployment to a QoS tenant (nil = default tenant).
	// Every node hosting a segment materializes the tenant locally:
	// weighted-fair scheduling against the node's other tenants, admission
	// control at true sources, and tenant-priority relay pumps — the same
	// isolation contract as SchedulerTarget.WithTenant, spanning nodes.
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

	r := &remoteDeployment{name: g.name, g: g, plan: plan, opt: *t, nodeOf: nodeOf,
		clients:        slices.Clone(t.Clients),
		names:          make([]string, len(t.Clients)),
		gone:           make([]bool, len(t.Clients)),
		retiredByNode:  make([]retiredCounts, len(t.Clients)),
		laneAddr:       make(map[string]string),
		segOutSpec:     make([]typespec.Typespec, len(plan.Segments)),
		segSections:    make([]int, len(plan.Segments)),
		laneSeed:       make(map[string]typespec.Typespec),
		mergeInSpec:    make(map[string][]typespec.Typespec),
		caps:           new(capSets),
		retired:        make(map[string]retiredCounts),
		lastRows:       make(map[int]map[string]remote.PipeStat),
		lastTenantRows: make(map[int]remote.TenantStat)}
	r.opt.Clients = nil // r.clients is the deployment's only client list
	for i, c := range r.clients {
		if r.names[i], err = c.Ping(); err != nil {
			return nil, fmt.Errorf("graph %q: node %d: %w", g.name, i, err)
		}
	}
	for name, ports := range plan.MergeBranch {
		r.mergeInSpec[name] = make([]typespec.Typespec, len(ports))
	}
	// Topological order with nothing recorded yet: every placement binds its
	// own lanes and composes its own relays.
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
	d := newDeployment(g.name, nil)
	d.remote = r
	return d, nil
}

// abort best-effort-undoes a partial deployment: stop every pipeline
// already composed (their threads exit and release the node schedulers'
// external-source references) and have every node drop the rendezvous
// listeners, cut links and pipeline registrations of this graph — a failing
// compose may already have run side-effectful factories (a bound listener
// holds an external-source reference) before it errored.  A failed deploy
// thus neither wedges the nodes nor leaks ports, and a retry starts clean.
func (r *remoteDeployment) abort() {
	for _, p := range r.pipes {
		_ = r.clients[p.client].Stop(p.name)
	}
	for _, c := range r.clients {
		_, _ = c.Lane(remote.LaneRequest{Kind: remote.LaneAbort, Prefix: r.name + "/"})
	}
}

// The renderers below turn (plan, nodeOf, recorded lanes) into wire specs —
// the only place a segment's or a relay's stages are spelled out, so a
// deploy and a move render the same pipeline the same way.  teeSpec renders
// the shared-tee boundary spec for a split or merge node; port < 0 means the
// tee itself rather than one of its ports.
func (r *remoteDeployment) teeSpec(kind, stageName, teeName string, port int) remote.StageSpec {
	n := r.g.index[teeName]
	params := make(map[string]string, len(n.spec.Params)+6)
	maps.Copy(params, n.spec.Params)
	params["tee"] = teeName
	params["merge"] = teeName
	// The node keys the shared instance by graph-prefixed name, so an
	// aborted deployment's tees cannot leak into a retry (and two graphs
	// may use the same tee name).
	params["graph"] = r.name
	if n.kind == nSplit {
		params["kind"] = n.spec.Kind
		params["outs"] = strconv.Itoa(n.outs)
	} else {
		params["ins"] = strconv.Itoa(n.ins)
	}
	if port >= 0 {
		params["port"] = strconv.Itoa(port)
	}
	return remote.StageSpec{Kind: kind, Name: stageName, Params: params}
}

func (r *remoteDeployment) recvSpecs(lane string) []remote.StageSpec {
	return []remote.StageSpec{
		{Kind: "ip/tcprecv", Name: lane + "/source", Params: map[string]string{
			"lane": lane, "depth": strconv.Itoa(r.opt.LinkDepth)}},
		{Kind: "ip/unmarshal", Name: lane + "/unmarshal"},
	}
}

// sendSpecs renders the sender tail of a lane, dialing its bound listener.
// Cluster lanes journal on the sender; chain names the sending segment's
// inbound lane, which should receive the downstream ack watermark (see
// nodeState.chainAck).
func (r *remoteDeployment) sendSpecs(lane, chain string) []remote.StageSpec {
	params := map[string]string{"addr": r.laneAddr[lane], "lane": lane}
	if r.opt.ClusterLanes {
		params["durable"] = "1"
		if chain != "" {
			params["chain"] = chain
		}
	}
	return []remote.StageSpec{
		{Kind: "ip/marshal", Name: lane + "/marshal"},
		{Kind: "ip/tcpsend", Name: lane + "/sink", Params: params},
	}
}

// pumpSpec renders a relay pump stage.  Tenant-bound deployments run their
// relays at the tenant's priority, so a high-priority tenant's items keep
// their precedence through lane relays exactly as they do through local
// boundary relays.
func (r *remoteDeployment) pumpSpec(lane string) remote.StageSpec {
	spec := remote.StageSpec{Kind: "ip/pump", Name: lane + "/pump"}
	if t := r.opt.Tenant; t != nil {
		spec.Params = map[string]string{"prio": strconv.Itoa(int(t.Priority()))}
	}
	return spec
}

func (r *remoteDeployment) teeOutSpec(tee string, port int) remote.StageSpec {
	return r.teeSpec("ip/teeout", fmt.Sprintf("%s.src%d", tee, port), tee, port)
}

func (r *remoteDeployment) mergeInStage(merge string, port int) remote.StageSpec {
	return r.teeSpec("ip/mergein", fmt.Sprintf("%s.in%d", merge, port), merge, port)
}

// splitRelaySpecs renders the sender relay of a cross-node split branch: it
// runs on the trunk's node and pumps the tee port into the branch's lane.
func (r *remoteDeployment) splitRelaySpecs(tee string, port int) []remote.StageSpec {
	lane := r.laneName(tee, port)
	return append([]remote.StageSpec{r.teeOutSpec(tee, port), r.pumpSpec(lane)}, r.sendSpecs(lane, "")...)
}

// mergeRelaySpecs renders the receiver relay of a cross-node merge branch:
// it runs on the merge's node and pumps the branch's lane into the in-port.
// The merge host cannot move, so the relay's listener self-acks.
func (r *remoteDeployment) mergeRelaySpecs(merge string, port int) []remote.StageSpec {
	lane := r.laneName(merge, port)
	return append(r.recvSpecs(lane), r.pumpSpec(lane), r.mergeInStage(merge, port))
}

// segmentSpecs renders segment si's pipeline — head boundary, declared
// stages, tail boundary — and the index of its first tail stage.
func (r *remoteDeployment) segmentSpecs(si int) (specs []remote.StageSpec, tailStart int) {
	seg := r.plan.Segments[si]
	depth := strconv.Itoa(r.opt.LinkDepth)
	inLane, outLane := r.segInLane(si), r.segOutLane(si)
	switch h := seg.Head; {
	case inLane != "":
		specs = r.recvSpecs(inLane)
	case h.Kind == core.EndSplitOut:
		specs = append(specs, r.teeOutSpec(h.Node, h.Port))
	case h.Kind == core.EndMergeOut:
		specs = append(specs, r.teeSpec("ip/mergeout", h.Node+".src", h.Node, -1))
	case h.Kind == core.EndCut:
		lane := r.cutLane(h.Port)
		specs = append(specs, remote.StageSpec{Kind: "ip/cutsrc", Name: lane + "/source",
			Params: map[string]string{"lane": lane, "depth": depth}})
	}
	for _, name := range seg.Stages {
		n := r.g.index[name]
		specs = append(specs, remote.StageSpec{Kind: n.spec.Kind, Name: n.name, Args: n.spec.Args, Params: n.spec.Params})
	}
	tailStart = len(specs)
	switch t := seg.Tail; {
	case outLane != "":
		specs = append(specs, r.sendSpecs(outLane, r.chainLane(si))...)
	case t.Kind == core.EndSplitTrunk:
		specs = append(specs, r.teeSpec("ip/teesink", t.Node, t.Node, -1))
	case t.Kind == core.EndMergeIn:
		specs = append(specs, r.mergeInStage(t.Node, t.Port))
	case t.Kind == core.EndCut:
		lane := r.cutLane(t.Port)
		specs = append(specs, remote.StageSpec{Kind: "ip/cutsink", Name: lane + "/sink",
			Params: map[string]string{"lane": lane, "depth": depth}})
	}
	return specs, tailStart
}

// seed returns the Typespec entering segment si, from what its upstream
// recorded: the wire spec of its inbound lane, the out-spec of the segment
// it is wired to directly, or the merge of a merge tee's in-ports.
func (r *remoteDeployment) seed(si int) (seed typespec.Typespec, err error) {
	if lane := r.segInLane(si); lane != "" {
		return r.laneSeed[lane], nil
	}
	h := r.plan.Segments[si].Head
	if h.Kind != core.EndMergeOut {
		if up := r.plan.Upstream(si); len(up) > 0 {
			seed = r.segOutSpec[up[0]]
		}
		return seed, nil
	}
	for port, ts := range r.mergeInSpec[h.Node] {
		if seed, err = seed.Merge(ts); err != nil {
			return seed, fmt.Errorf("graph %q: merging flows into %q: in-port %d: %w", r.name, h.Node, port, err)
		}
	}
	return seed, nil
}

// laneIf returns lane when the boundary between segments from and to runs
// over TCP: once bound a lane stays one wherever its ends move; unbound, it
// is one when the ends sit on different nodes (or forced says so).
func (r *remoteDeployment) laneIf(lane string, from, to int, forced bool) string {
	if _, bound := r.laneAddr[lane]; bound || forced || r.nodeOf[from] != r.nodeOf[to] {
		return lane
	}
	return ""
}

// segInLane returns segment si's inbound lane ("" when its head is wired
// directly).  Cluster lanes are durable, merged flows included: each merge
// in-port stamps the item's Origin, so the lane journals and dedups on the
// per-origin-monotone (origin, seq) pair (see item.Item.Origin and netpipe's
// durable lanes).  ClusterLanes forces every cut onto TCP.
func (r *remoteDeployment) segInLane(si int) string {
	switch h := r.plan.Segments[si].Head; h.Kind {
	case core.EndSplitOut:
		return r.laneIf(r.laneName(h.Node, h.Port), r.plan.SplitTrunk[h.Node], si, false)
	case core.EndCut:
		return r.laneIf(r.cutLane(h.Port), r.plan.Cuts[h.Port].FromSeg, si, r.opt.ClusterLanes)
	}
	return ""
}

// segOutLane returns segment si's (single) outbound lane, "" when its tail
// is wired directly.
func (r *remoteDeployment) segOutLane(si int) string {
	switch t := r.plan.Segments[si].Tail; t.Kind {
	case core.EndMergeIn:
		return r.laneIf(r.laneName(t.Node, t.Port), si, r.plan.MergeDown[t.Node], false)
	case core.EndCut:
		return r.laneIf(r.cutLane(t.Port), si, r.plan.Cuts[t.Port].ToSeg, r.opt.ClusterLanes)
	}
	return ""
}

// chainLane returns the inbound lane that segment si's outbound sender
// forwards its acks to — non-empty only when both boundary lanes are
// durable.  Chaining keeps the UPSTREAM journal covering everything that
// has not cleared the lane BELOW si, which is what makes losing si (and
// everything in flight through it) recoverable by replay.
func (r *remoteDeployment) chainLane(si int) string {
	if r.opt.ClusterLanes && r.segOutLane(si) != "" {
		return r.segInLane(si)
	}
	return ""
}

// laneName renders the canonical name of a tee-boundary lane.
func (r *remoteDeployment) laneName(node string, port int) string {
	return fmt.Sprintf("%s/%s:%d", r.name, node, port)
}

// cutLane renders the canonical name of a cut-edge lane.
func (r *remoteDeployment) cutLane(ci int) string {
	return fmt.Sprintf("%s/cut%d", r.name, ci)
}

// tenantSpec renders the deployment's tenant as a wire spec (nil when the
// deployment runs as the default tenant).  Each node materializes the
// tenant once, keyed by name, so every segment and relay of every
// deployment bound to the same tenant shares one weighted-fair class and
// one set of admission counters per node.
func (r *remoteDeployment) tenantSpec() *remote.TenantSpec {
	t := r.opt.Tenant
	if t == nil {
		return nil
	}
	return &remote.TenantSpec{Name: t.Name(), Weight: t.Weight(),
		Rate: t.Rate(), Burst: t.Burst(),
		Shed: int(t.ShedPolicy()), Prio: int(t.Priority())}
}

// listen pre-binds the rendezvous listener of a lane on the node of its
// receiving segment and records the address.  Cluster lanes are durable:
// they park on a bare EOF so a re-placed sender can dial back in, dedup on
// sequence numbers and send cumulative acks; a listener whose segment sends
// on into another durable lane is chained — it forwards the downstream
// watermark instead of acknowledging its own consumption.
func (r *remoteDeployment) listen(lane string, receiver int) error {
	node := r.nodeOf[receiver]
	rep, err := r.clients[node].Lane(remote.LaneRequest{Kind: remote.LaneListen, Lane: lane,
		Depth: r.opt.LinkDepth, Durable: r.opt.ClusterLanes, Chained: r.chainLane(receiver) == lane})
	if err != nil {
		return fmt.Errorf("graph %q: node %d: listen %q: %w", r.name, node, lane, err)
	}
	r.laneAddr[lane] = rep.Addr
	return nil
}

// compose sends one pipeline to a node, seeded with the upstream Typespec,
// and records where it runs.  Segments skip the per-pipeline
// event-capability check, exactly like the local deployer (events may be
// handled in another segment); the deploy checks graph-wide from the sets
// the replies carry.  admit asks the node to gate the pipeline's source with
// the tenant's admission control — true only for true-source segments of a
// tenant-bound deployment (boundary-headed pipelines carry already-admitted
// items).
func (r *remoteDeployment) compose(node int, name string, specs []remote.StageSpec, seed typespec.Typespec, seg int, admit bool) (remote.Composed, error) {
	rep, err := r.clients[node].ComposeTenantSegment(name, specs, seed, r.tenantSpec(), admit)
	if err != nil {
		return rep, fmt.Errorf("graph %q: node %d: compose %q: %w", r.name, node, name, err)
	}
	if c := r.caps; c != nil {
		for _, t := range rep.Sends {
			c.sends = append(c.sends, events.Type(t))
		}
		for _, t := range rep.Handles {
			c.handles = append(c.handles, events.Type(t))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if i := r.pipeIndex(name); i >= 0 {
		r.pipes[i].client = node
	} else {
		r.pipes = append(r.pipes, remotePipe{client: node, name: name, seg: seg})
	}
	return rep, nil
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

// place puts segment si on its node: it binds the listeners of its boundary
// lanes that are not bound, composes the split relays around it that are not
// on their trunk's node, composes the segment seeded with what its upstream
// recorded, records what its downstream will need, and composes its merge
// relay if the merge's node lacks it.  A deploy calls it in topological
// order with nothing recorded, so each call does all of that; a move calls
// it for the one segment it unbound, against lanes recorded long ago.  When
// it fails it drops the listeners it bound: each is a port and a scheduler
// external-source reference.
func (r *remoteDeployment) place(si int) (err error) {
	seg := r.plan.Segments[si]
	inLane, outLane := r.segInLane(si), r.segOutLane(si)
	type end struct {
		lane     string
		receiver int // the segment the lane's listener belongs to
	}
	ends := []end{{inLane, si}}
	if outLane != "" {
		ends = append(ends, end{outLane, r.plan.Downstream(si)[0]})
	}
	for _, e := range ends {
		if e.lane == "" || r.laneAddr[e.lane] != "" {
			continue
		}
		if err = r.listen(e.lane, e.receiver); err != nil {
			return err
		}
		defer func() {
			if err != nil {
				_, _ = r.clients[r.nodeOf[e.receiver]].Lane(remote.LaneRequest{
					Kind: remote.LaneDrop, Lane: e.lane, Side: remote.ListenerSide})
				r.laneAddr[e.lane] = ""
			}
		}()
	}

	// The split tees this segment touches — the one feeding its head, the
	// one it hosts — want a sender relay beside the tee for every bound
	// branch lane.  The tee factories are idempotent, so relays and trunk
	// compose in either order.
	for _, tee := range []string{seg.Head.Node, seg.Tail.Node} {
		trunk := r.plan.SplitTrunk[tee]
		for port := range r.plan.SplitBranch[tee] {
			lane := r.laneName(tee, port)
			if r.laneAddr[lane] == "" || r.hostOf(lane+"/relay") == r.nodeOf[trunk] {
				continue
			}
			specs := r.splitRelaySpecs(tee, port)
			rep, err := r.compose(r.nodeOf[trunk], lane+"/relay", specs, r.segOutSpec[trunk], -1, false)
			if err != nil {
				return err
			}
			r.laneSeed[lane] = rep.SpecAt(len(specs) - 2) // after the marshal stage
		}
	}

	specs, tailStart := r.segmentSpecs(si)
	seed, err := r.seed(si)
	if err != nil {
		return err
	}
	admit := r.opt.Tenant != nil && seg.Head.Kind == core.EndNone
	rep, err := r.compose(r.nodeOf[si], r.name+"/"+seg.Name(), specs, seed, si, admit)
	if err != nil {
		return err
	}
	r.segSections[si] = rep.Sections
	r.segOutSpec[si] = seed
	if tailStart > 0 {
		r.segOutSpec[si] = rep.SpecAt(tailStart - 1)
	}
	// A lane is seeded with its WIRE Typespec — the spec after the marshal
	// stage, whose carried-item-type property lets the receiving node's
	// unmarshal restore the logical type.
	if outLane != "" {
		r.laneSeed[outLane] = rep.SpecAt(tailStart)
	}

	if t := seg.Tail; t.Kind == core.EndMergeIn {
		anchor := r.nodeOf[r.plan.MergeDown[t.Node]]
		switch {
		case outLane == "":
			r.mergeInSpec[t.Node][t.Port] = r.segOutSpec[si]
		case r.hostOf(outLane+"/relay") != anchor:
			specs := r.mergeRelaySpecs(t.Node, t.Port)
			rep, err := r.compose(anchor, outLane+"/relay", specs, r.laneSeed[outLane], -1, false)
			if err != nil {
				return err
			}
			r.mergeInSpec[t.Node][t.Port] = rep.SpecAt(len(specs) - 2)
		}
	}
	return nil
}

// capSets are the events some set of pipelines emits and handles.
type capSets struct{ sends, handles []events.Type }

// remotePipe names one pipeline composed on one node.
type remotePipe struct {
	client int
	name   string
	seg    int // plan segment index, -1 for relay pipelines
}

// remoteDeployment is a graph deployed onto remote nodes: the wiring the
// deploy recorded (Stats and every move go on to use it) and the run state.
// Segments compose in topological order, every upstream resolving its
// Typespecs first, so the seed can ride each compose request downstream;
// rendezvous listeners are pre-bound — the sender knows the address before
// the receiving segment exists, and that segment's ip/tcprecv attaches to
// the listener instead of creating one.
type remoteDeployment struct {
	name string
	g    *Graph
	plan *core.GraphPlan
	// opt holds the target's settings as they were at deploy time; its
	// Clients is nil — clients below is the deployment's own list.
	opt     NodesTarget
	clients []*remote.Client
	names   []string // node names by client index (ping at deploy)
	pipes   []remotePipe
	nodeOf  []int // node index by segment; written under mu

	// laneAddr records every boundary that runs over TCP: the address of the
	// lane's listener, "" while a move has it unbound.
	laneAddr map[string]string
	// segOutSpec[i] is the resolved Typespec of the flow leaving segment
	// i's last declared stage — the seed carried into downstream segments.
	segOutSpec []typespec.Typespec
	// laneSeed is the WIRE Typespec entering each TCP lane; seeding the
	// lane's receiver with it keeps §2.3 checking honest across the hop.
	laneSeed    map[string]typespec.Typespec
	mergeInSpec map[string][]typespec.Typespec
	// segSections[i] is the pump-driven section count of segment i's
	// composed pipeline (buffers add sections).  A durable self-acking
	// inbound lane anchors its acks one pop behind the FIRST pump, so only
	// single-section segments can prove end-of-segment consumption —
	// replaceable() refuses the rest.
	segSections []int
	// caps collects the event-capability sets the compose replies carry
	// while the deploy runs; nil once its graph-wide check has passed.
	caps *capSets

	mu        sync.Mutex
	startErr  error
	started   bool
	replacing bool
	// gone[i] marks node i as drained and departed (elastic leave): the
	// entry keeps its index — pipes never reference it again after the
	// drain — but broadcasts and rebinds skip it.  Copy-on-write under mu,
	// like clients/names (see clientSnap).
	gone []bool
	// supervised deployments treat an unreachable node as PENDING instead
	// of fatal: a Supervisor owns the failure — it either fails the node's
	// segments over to survivors (and the poll heals) or latches a terminal
	// error via Fail.  Unsupervised deployments keep the fail-fast contract.
	supervised bool
	// repGen increments at the start AND end of every move (replaceWindow).
	repGen uint64
	// retired folds the pump counters of pipeline generations detached by
	// Replace, keyed by pipeline name, so Stats stays cumulative.
	retired       map[string]retiredCounts
	retiredByNode []retiredCounts
	// lastRows caches each node's last successful stats rows: a snapshot
	// that cannot reach a node reuses them instead of zeroing the node,
	// which would otherwise feed the balancer a false full-history delta
	// when the node answers again.
	lastRows map[int]map[string]remote.PipeStat
	// lastTenantRows caches each node's last tenant rollup for the
	// deployment's tenant, so an unreachable node keeps contributing its
	// last-known admission counters to the cumulative rollup instead of
	// silently deflating admitted+sheds after a failover.
	lastTenantRows map[int]remote.TenantStat
}

// clientSnap returns the current client list and its gone markers, one per
// client.  Both slices are copy-on-write: AddNode and MarkNodeGone publish
// fresh ones under mu and never mutate a published slice, so a snapshot
// stays valid lock-free.
// Replace-path code running under Deployment.rbMu may keep reading r.clients
// directly — AddNode serializes on rbMu too.
func (r *remoteDeployment) clientSnap() ([]*remote.Client, []bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.clients, r.gone
}

// broadcast sends the event to every node still in the deployment and
// reports the first failure.  It does not stop at one: a dead node must not
// keep the nodes after it from hearing a stop.
func (r *remoteDeployment) broadcast(t events.Type) error {
	clients, gone := r.clientSnap()
	var first error
	for i, c := range clients {
		if gone[i] {
			continue
		}
		if err := c.SendEvent(events.Event{Type: t, Origin: r.name}); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// start broadcasts the start event to every node.  A failure (a node died)
// leaves the deployment without one of its parts: roll every reachable node
// back with a stop and latch the error so Wait and Err report it instead of
// polling never-started pipelines forever.
func (r *remoteDeployment) start() {
	r.mu.Lock()
	r.started = true
	r.mu.Unlock()
	if err := r.broadcast(events.Start); err != nil {
		r.fail(fmt.Errorf("graph %q: start failed, deployment rolled back: %w", r.name, err))
	}
}

// stop is best effort: a node it cannot reach is one Wait and Err already
// report as unreachable, so the error is dropped here.
func (r *remoteDeployment) stop() { _ = r.broadcast(events.Stop) }

func (r *remoteDeployment) failure() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.startErr
}

// pipeList snapshots the pipes under the lock (Replace rewrites entries).
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
// doing: it snapshots the pipes, then the clients (the client list only
// grows, so the later snapshot covers every pipe's node index), fetches
// each hosting node's rows once, and judges every pipe that has none.
// Every pipe is looked at every time — stopping at the first unfinished one
// would keep a dead node's pipelines out of reach of the unreachability
// check and hang a Wait.
func (r *remoteDeployment) poll() []polledPipe {
	r.mu.Lock()
	gen := r.repGen
	r.mu.Unlock()
	pipes := r.pipeList()
	clients, _ := r.clientSnap()
	rows, errs := r.fetch(pipes, clients)
	// A move (Replace, FailOver) in flight at any point of the poll — even
	// one that started AND finished while a request was out, hence the
	// generation — may have left a pipe missing from the node the snapshot
	// places it on.
	r.mu.Lock()
	rewiring, supervised := r.replacing || r.repGen != gen, r.supervised
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
	if err := r.failure(); err != nil {
		return err
	}
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

// wait polls the nodes until every pipeline of the deployment has finished.
// A failed Start short-circuits with the rollback error; an unreachable
// node surfaces as a wrapped remote.ErrNodeUnreachable instead of hanging.
func (r *remoteDeployment) wait() error {
	for {
		if err := r.failure(); err != nil {
			return err
		}
		done, reachable := true, 0
		for _, p := range r.poll() {
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
			return r.err()
		}
		//ipvet:allow wallclock completion poll interval against live remote nodes; their flows run on their own clocks
		time.Sleep(10 * time.Millisecond)
	}
}

// stats fans the stats op out to every node hosting a piece of the
// deployment and folds the per-node rows into one GraphStats: segments in
// plan order (Shard = node index), then relays, with per-node load in
// Shards and the node names in Nodes.  Counters of generations detached by
// Replace are folded back in, so rows stay cumulative.
func (r *remoteDeployment) stats() GraphStats {
	var st GraphStats
	pipes := r.pipeList()
	clients, _ := r.clientSnap() // after pipeList: covers every pipe index
	st.Shards = make([]ShardLoad, len(clients))
	r.mu.Lock()
	st.Nodes = append(st.Nodes, r.names...)
	for i, ret := range r.retiredByNode {
		if i < len(st.Shards) {
			st.Shards[i].Items = ret.items
			st.Shards[i].BusyNanos = ret.busyNs
		}
	}
	retired := maps.Clone(r.retired)
	r.mu.Unlock()

	// An unreachable node's pipes fall back to its LAST-KNOWN rows rather
	// than zero: a zeroed snapshot would hand the balancer a false
	// full-history delta the moment the node answers again.
	rows, errs := r.fetch(pipes, clients)
	r.mu.Lock()
	for node := range errs {
		rows[node] = r.lastRows[node]
	}
	r.mu.Unlock()

	add := func(p remotePipe, segName string, relay bool) {
		row := rows[p.client][p.name]
		ret := retired[p.name]
		s := SegmentStats{
			Name: segName, Shard: p.client, Relay: relay, Finished: row.EOS,
			Items:     row.Items + ret.items,
			Cycles:    row.Cycles + ret.cycles,
			BusyNanos: row.BusyNanos + ret.busyNs,
		}
		st.Segments = append(st.Segments, s)
		if p.client >= 0 && p.client < len(st.Shards) {
			st.Shards[p.client].Items += row.Items
			st.Shards[p.client].BusyNanos += row.BusyNanos
			if !s.Finished {
				st.Shards[p.client].Pipelines++
				if !relay {
					st.Shards[p.client].Segments++
				}
			}
		}
	}
	// Segments in plan order first, relays (seg -1, the largest uint) after —
	// same shape as the local snapshot, so operator tooling and the Balancer
	// read both alike.
	slices.SortStableFunc(pipes, func(a, b remotePipe) int { return cmp.Compare(uint(a.seg), uint(b.seg)) })
	for _, p := range pipes {
		if p.seg < 0 {
			add(p, p.name, true)
		} else {
			add(p, r.plan.Segments[p.seg].Name(), false)
		}
	}
	r.tenantStats(&st)
	return st
}

// tenantStats folds the deployment tenant's per-node rollups into one
// GraphStats row: admission counters and credit debt sum across nodes;
// Share is the tenant's charged cycles over the cycles charged on every
// polled node's scheduler.  EVERY client of the target is polled, not just
// the nodes currently hosting pipes: a Replace or failover moves pipes off a
// node without moving its historical admission counters, and dropping such
// a node from the poll would deflate the cumulative admitted+sheds rollup.
// An unreachable node contributes its last-known row instead of zero (same
// contract as the pipe rows above).
func (r *remoteDeployment) tenantStats(st *GraphStats) {
	t := r.opt.Tenant
	if t == nil {
		return
	}
	row := TenantStats{Tenant: t.Name(), Weight: t.Weight()}
	var granted, cycles int64
	polled := false
	clients, gone := r.clientSnap()
	for node := range clients {
		var nodeRow remote.TenantStat
		found, answered := false, false
		// A departed node is not polled (its client is closed), but its
		// historical counters still count: it folds in like an unreachable one.
		if !gone[node] {
			if tenants, err := clients[node].Tenants(); err == nil {
				answered = true
				for _, ts := range tenants {
					if ts.Name == t.Name() {
						nodeRow, found = ts, true
					}
				}
			}
		}
		r.mu.Lock()
		if found {
			r.lastTenantRows[node] = nodeRow
		} else if !answered {
			nodeRow, found = r.lastTenantRows[node]
		}
		r.mu.Unlock()
		if !found {
			continue
		}
		polled = true
		row.Admitted += nodeRow.Admitted
		row.Sheds += nodeRow.Sheds
		row.CreditDebt += nodeRow.CreditDebt
		granted += nodeRow.Granted
		cycles += nodeRow.SchedCycles
	}
	if !polled {
		return
	}
	if cycles > 0 {
		row.Share = float64(granted) / float64(cycles)
	}
	st.Tenants = append(st.Tenants, row)
}

// rebindTenant applies RebindTenant edit ops to a remote deployment: the
// deployer-side tenant handle records the new policy (so later composes and
// stats see it), then the rebind rides a §2.4 op to every node of the
// target, retuning each node's materialized tenant and weighted-fair class
// in place.  Weight changes bite within one pump cycle on every node (next
// ready-queue admission); rate changes on each admission gate's next item.
// An unreachable node fails the call unless the deployment is supervised —
// there the supervisor owns the node's fate, and a re-placement composes
// against the updated TenantSpec anyway.
func (r *remoteDeployment) rebindTenant(rebinds []RebindTenant) error {
	t := r.opt.Tenant
	if t == nil {
		return ErrNoTenant
	}
	for _, rb := range rebinds {
		if rb.Weight > 0 {
			t.SetWeight(rb.Weight)
		}
		if rb.SetRate {
			t.SetRate(rb.Rate, rb.Burst)
		}
		if rb.SetPrio {
			t.SetPriority(rb.Prio)
		}
	}
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
