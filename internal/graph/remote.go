package graph

import (
	"errors"
	"fmt"
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
// pre-binds every rendezvous listener through the listen control op before
// the sender dials — so each segment's compose request carries its upstream
// segment's resolved Typespec: §2.3 flow checking spans node boundaries,
// and a mistyped cross-node edge fails at deploy time.  Every target node
// must have been prepared with EnableNode.
type NodesTarget struct {
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
	// JournalLimit bounds each durable sender's replay journal (entries,
	// 0 = netpipe default).  A full journal blocks the sending pipeline
	// until the receiver acknowledges.
	JournalLimit int
	// AckEvery makes durable receivers acknowledge after every N consumed
	// items (0 = netpipe default).
	AckEvery int
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

// WithJournal tunes the durable-lane replay journal and ack cadence
// (implies WithClusterLanes).
func (t *NodesTarget) WithJournal(limit, ackEvery int) *NodesTarget {
	t.ClusterLanes = true
	t.JournalLimit = limit
	t.AckEvery = ackEvery
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

	rd := &remoteDeploy{g: g, plan: plan, target: t, nodeOf: nodeOf,
		laneAddr: make(map[string]string), touched: make(map[int]bool)}
	return rd.run()
}

// remoteDeploy composes the segments in topological order: every upstream
// segment resolves its Typespecs first, so the seed can ride each compose
// request downstream.  Rendezvous listeners are pre-bound through the
// listen control op — the sender side knows the address before the
// receiving segment exists; the receiving segment's ip/tcprecv then
// attaches to the listener instead of creating one.  The wiring survives on
// the deployment for remote Stats and Replace.
type remoteDeploy struct {
	g      *Graph
	plan   *core.GraphPlan
	target *NodesTarget
	nodeOf []int

	laneAddr map[string]string
	touched  map[int]bool // nodes a compose or listen was ATTEMPTED on (abort scope)
	// segOutSpec[i] is the resolved Typespec of the flow leaving segment
	// i's last declared stage — the seed carried into downstream segments.
	segOutSpec []typespec.Typespec
	// laneSeed is the WIRE Typespec entering each TCP lane — the upstream
	// spec after its marshal stage, whose carried-item-type property lets
	// the receiving node's unmarshal restore the logical type.  Seeding the
	// lane's receiver with it keeps §2.3 checking honest across the hop
	// (and Replace reuses it when recomposing the receiver elsewhere).
	laneSeed    map[string]typespec.Typespec
	mergeInSpec map[string][]typespec.Typespec
	// segSections[i] is the pump-driven section count of segment i's
	// composed pipeline (the compose reply carries it; buffers add
	// sections).  A durable self-acking inbound lane anchors its acks one
	// pop behind the FIRST pump, so only single-section segments can prove
	// end-of-segment consumption — replaceable() refuses the rest.
	segSections []int
	d           *remoteDeployment
}

func (rd *remoteDeploy) run() (*Deployment, error) {
	rd.d = &remoteDeployment{name: rd.g.name, clients: rd.target.Clients, rd: rd,
		names:          make([]string, len(rd.target.Clients)),
		retired:        make(map[string]retiredCounts),
		lastRows:       make(map[int]map[string]remote.PipeStat),
		lastTenantRows: make(map[int]remote.TenantStat)}
	for i, c := range rd.target.Clients {
		name, err := c.Ping()
		if err != nil {
			return nil, fmt.Errorf("graph %q: node %d: %w", rd.g.name, i, err)
		}
		rd.d.names[i] = name
	}
	rd.segOutSpec = make([]typespec.Typespec, len(rd.plan.Segments))
	rd.segSections = make([]int, len(rd.plan.Segments))
	rd.laneSeed = make(map[string]typespec.Typespec)
	rd.mergeInSpec = make(map[string][]typespec.Typespec)
	for name, ports := range rd.plan.MergeBranch {
		rd.mergeInSpec[name] = make([]typespec.Typespec, len(ports))
	}
	for _, si := range rd.plan.Order {
		if err := rd.composeSegment(si); err != nil {
			rd.abort()
			return nil, err
		}
	}
	if err := rd.checkEventCoverage(); err != nil {
		rd.abort()
		return nil, err
	}
	d := newDeployment(rd.g.name, nil)
	d.remote = rd.d
	return d, nil
}

// checkEventCoverage runs the graph-wide §2.3 event-capability check across
// every node: the capability sets of each composed segment are fetched over
// the caps op and unioned, so an event emitted on one node still counts as
// handled when its handler was composed on another.
func (rd *remoteDeploy) checkEventCoverage() error {
	var sends, handles []events.Type
	for _, p := range rd.d.pipes {
		s, h, err := rd.client(p.client).Caps(p.name)
		if err != nil {
			return fmt.Errorf("graph %q: caps of %q: %w", rd.g.name, p.name, err)
		}
		for _, t := range s {
			sends = append(sends, events.Type(t))
		}
		for _, t := range h {
			handles = append(handles, events.Type(t))
		}
	}
	if err := core.CheckEventCoverage(sends, handles); err != nil {
		return fmt.Errorf("graph %q: %w", rd.g.name, err)
	}
	return nil
}

// abort best-effort-undoes a partial deployment: stop every pipeline
// already composed (their threads exit and release the node schedulers'
// external-source references) and have every node a compose was even
// ATTEMPTED on drop the rendezvous listeners, cut links and pipeline
// registrations of this graph — a failing compose may already have run
// side-effectful factories (a bound listener holds an external-source
// reference) before it errored.  A failed deploy thus neither wedges the
// nodes nor leaks ports, and a retry starts clean.
func (rd *remoteDeploy) abort() {
	for _, p := range rd.d.pipes {
		_ = rd.client(p.client).Stop(p.name)
	}
	for node := range rd.touched {
		_, _ = rd.client(node).Control("abort", map[string]string{"prefix": rd.g.name + "/"})
	}
}

func (rd *remoteDeploy) client(node int) *remote.Client { return rd.target.Clients[node] }

// stageSpec renders one declared graph node as a wire spec.
func (rd *remoteDeploy) stageSpec(name string) remote.StageSpec {
	n := rd.g.index[name]
	return remote.StageSpec{Kind: n.spec.Kind, Name: n.name, Args: n.spec.Args, Params: n.spec.Params}
}

// teeSpec renders the shared-tee boundary spec for a split or merge node.
func (rd *remoteDeploy) teeSpec(kind, stageName, teeName string, extra map[string]string) remote.StageSpec {
	n := rd.g.index[teeName]
	params := make(map[string]string, len(n.spec.Params)+4)
	for k, v := range n.spec.Params {
		params[k] = v
	}
	params["tee"] = teeName
	params["merge"] = teeName
	// The node keys the shared instance by graph-prefixed name, so an
	// aborted deployment's tees cannot leak into a retry (and two graphs
	// may use the same tee name).
	params["graph"] = rd.g.name
	if n.kind == nSplit {
		params["kind"] = n.spec.Kind
		params["outs"] = strconv.Itoa(n.outs)
	} else {
		params["ins"] = strconv.Itoa(n.ins)
	}
	for k, v := range extra {
		params[k] = v
	}
	return remote.StageSpec{Kind: kind, Name: stageName, Params: params}
}

func (rd *remoteDeploy) recvSpecs(lane string) []remote.StageSpec {
	return []remote.StageSpec{
		{Kind: "ip/tcprecv", Name: lane + "/source", Params: map[string]string{
			"lane": lane, "depth": strconv.Itoa(rd.target.LinkDepth)}},
		{Kind: "ip/unmarshal", Name: lane + "/unmarshal"},
	}
}

// sendSpecs renders the sender tail of a lane.  Cluster lanes journal on
// the sender; chain names the sending segment's inbound lane, which should
// receive the downstream ack watermark (see nodeState.chainAck).
func (rd *remoteDeploy) sendSpecs(lane, addr, chain string) []remote.StageSpec {
	params := map[string]string{"addr": addr, "lane": lane}
	if rd.target.ClusterLanes {
		params["durable"] = "1"
		params["journal"] = strconv.Itoa(rd.target.JournalLimit)
		if chain != "" {
			params["chain"] = chain
		}
	}
	return []remote.StageSpec{
		{Kind: "ip/marshal", Name: lane + "/marshal"},
		{Kind: "ip/tcpsend", Name: lane + "/sink", Params: params},
	}
}

// segInLane returns segment si's inbound lane ("" when its head is wired
// directly).  Cluster lanes are durable, merged flows included: each merge
// in-port stamps the item's Origin, so the lane journals and dedups on the
// per-origin-monotone (origin, seq) pair (see item.Item.Origin and netpipe's
// durable lanes).
func (rd *remoteDeploy) segInLane(si int) string {
	switch h := rd.plan.Segments[si].Head; h.Kind {
	case core.EndSplitOut:
		if rd.nodeOf[rd.plan.SplitTrunk[h.Node]] != rd.nodeOf[si] {
			return rd.laneName(h.Node, h.Port)
		}
	case core.EndCut:
		if rd.cutIsLane(h.Port) {
			return rd.cutLane(h.Port)
		}
	}
	return ""
}

// segOutLane returns segment si's (single) outbound lane, "" when its tail
// is wired directly.
func (rd *remoteDeploy) segOutLane(si int) string {
	switch t := rd.plan.Segments[si].Tail; t.Kind {
	case core.EndMergeIn:
		if rd.nodeOf[rd.plan.MergeDown[t.Node]] != rd.nodeOf[si] {
			return rd.laneName(t.Node, t.Port)
		}
	case core.EndCut:
		if rd.cutIsLane(t.Port) {
			return rd.cutLane(t.Port)
		}
	}
	return ""
}

// chainLane returns the inbound lane that segment si's outbound sender
// forwards its acks to — non-empty only when both boundary lanes are
// durable.  Chaining keeps the UPSTREAM journal covering everything that
// has not cleared the lane BELOW si, which is what makes losing si (and
// everything in flight through it) recoverable by replay.
func (rd *remoteDeploy) chainLane(si int) string {
	if rd.target.ClusterLanes && rd.segOutLane(si) != "" {
		return rd.segInLane(si)
	}
	return ""
}

// listen pre-binds the rendezvous listener of a lane on a node and records
// its address.  Cluster lanes are durable: they park on a bare EOF so a
// re-placed sender can dial back in, dedup on sequence numbers and send
// cumulative acks; chained listeners forward the downstream watermark
// instead of acknowledging their own consumption.
func (rd *remoteDeploy) listen(node int, lane string, chained bool) (string, error) {
	rd.touched[node] = true
	params := map[string]string{"lane": lane, "depth": strconv.Itoa(rd.target.LinkDepth)}
	if rd.target.ClusterLanes {
		params["durable"] = "1"
		params["ackevery"] = strconv.Itoa(rd.target.AckEvery)
		if chained {
			params["chain"] = "1"
		}
	}
	addr, err := rd.client(node).Control("listen", params)
	if err != nil {
		return "", fmt.Errorf("graph %q: node %d: listen %q: %w", rd.g.name, node, lane, err)
	}
	rd.laneAddr[lane] = addr
	return addr, nil
}

// tenantSpec renders the deployment's tenant as a wire spec (nil when the
// deployment runs as the default tenant).  Each node materializes the
// tenant once, keyed by name, so every segment and relay of every
// deployment bound to the same tenant shares one weighted-fair class and
// one set of admission counters per node.
func (rd *remoteDeploy) tenantSpec() *remote.TenantSpec {
	t := rd.target.Tenant
	if t == nil {
		return nil
	}
	return &remote.TenantSpec{Name: t.Name(), Weight: t.Weight(),
		Rate: t.Rate(), Burst: t.Burst(),
		Shed: int(t.ShedPolicy()), Prio: int(t.Priority())}
}

// compose sends one pipeline to a node, seeded with the upstream Typespec,
// and records it in the deployment.  Segments skip the per-pipeline
// event-capability check, exactly like the local deployer (events may be
// handled in another segment); the graph-wide check runs after deployment.
// admit asks the node to gate the pipeline's source with the tenant's
// admission control — true only for true-source segments of a tenant-bound
// deployment (boundary-headed pipelines carry already-admitted items).
func (rd *remoteDeploy) compose(node int, name string, specs []remote.StageSpec, seed typespec.Typespec, seg int, admit bool) error {
	rd.touched[node] = true
	sections, err := rd.client(node).ComposeTenantSegment(name, specs, seed, rd.tenantSpec(), admit)
	if err != nil {
		return fmt.Errorf("graph %q: node %d: compose %q: %w", rd.g.name, node, name, err)
	}
	rd.d.pipes = append(rd.d.pipes, remotePipe{client: node, name: name, seg: seg})
	if seg >= 0 {
		rd.segSections[seg] = sections
	}
	return nil
}

// outSpec reads the resolved Typespec of the flow leaving stage idx of a
// composed pipeline back from its node (remote Typespec query, §2.4).
func (rd *remoteDeploy) outSpec(node int, name string, idx int) (typespec.Typespec, error) {
	ts, err := rd.client(node).QuerySpec(name, idx)
	if err != nil {
		return typespec.Typespec{}, fmt.Errorf("graph %q: query %q stage %d: %w", rd.g.name, name, idx, err)
	}
	return ts, nil
}

// laneName renders the canonical name of a tee-boundary lane.
func (rd *remoteDeploy) laneName(node string, port int) string {
	return fmt.Sprintf("%s/%s:%d", rd.g.name, node, port)
}

// cutLane renders the canonical name of a cut-edge lane.
func (rd *remoteDeploy) cutLane(ci int) string {
	return fmt.Sprintf("%s/cut%d", rd.g.name, ci)
}

// cutIsLane reports whether cut ci crosses nodes (or ClusterLanes forces
// every cut onto TCP).
func (rd *remoteDeploy) cutIsLane(ci int) bool {
	cut := rd.plan.Cuts[ci]
	return rd.target.ClusterLanes || rd.nodeOf[cut.FromSeg] != rd.nodeOf[cut.ToSeg]
}

// pumpSpec renders a relay pump stage.  Tenant-bound deployments run their
// relays at the tenant's priority, so a high-priority tenant's items keep
// their precedence through lane relays exactly as they do through local
// boundary relays.
func (rd *remoteDeploy) pumpSpec(lane string) remote.StageSpec {
	spec := remote.StageSpec{Kind: "ip/pump", Name: lane + "/pump"}
	if t := rd.target.Tenant; t != nil {
		spec.Params = map[string]string{"prio": strconv.Itoa(int(t.Priority()))}
	}
	return spec
}

func (rd *remoteDeploy) composeSegment(si int) error {
	g, plan, seg := rd.g, rd.plan, rd.plan.Segments[si]
	own := rd.nodeOf[si]
	depth := strconv.Itoa(rd.target.LinkDepth)
	var specs []remote.StageSpec
	var seed typespec.Typespec

	switch h := seg.Head; h.Kind {
	case core.EndSplitOut:
		trunk := plan.SplitTrunk[h.Node]
		seed = rd.segOutSpec[trunk]
		if rd.nodeOf[trunk] == own {
			specs = append(specs, rd.teeSpec("ip/teeout", fmt.Sprintf("%s.src%d", h.Node, h.Port),
				h.Node, map[string]string{"port": strconv.Itoa(h.Port)}))
		} else {
			// Cross-node branch: this segment hosts the lane listener; a
			// sender relay on the trunk's node pumps the tee port into it.
			// The trunk composed earlier (topological order), so the tee
			// already exists there and the relay's seed is resolved.
			lane := rd.laneName(h.Node, h.Port)
			addr, err := rd.listen(own, lane, rd.chainLane(si) == lane)
			if err != nil {
				return err
			}
			relay := []remote.StageSpec{
				rd.teeSpec("ip/teeout", fmt.Sprintf("%s.src%d", h.Node, h.Port),
					h.Node, map[string]string{"port": strconv.Itoa(h.Port)}),
				rd.pumpSpec(lane),
			}
			relay = append(relay, rd.sendSpecs(lane, addr, "")...)
			if err := rd.compose(rd.nodeOf[trunk], lane+"/relay", relay, seed, -1, false); err != nil {
				return err
			}
			// The branch's seed is the lane's wire spec — the relay's
			// output after its marshal stage, carried-item-type included.
			wire, err := rd.outSpec(rd.nodeOf[trunk], lane+"/relay", len(relay)-2)
			if err != nil {
				return err
			}
			rd.laneSeed[lane] = wire
			seed = wire
			specs = append(specs, rd.recvSpecs(lane)...)
		}
	case core.EndMergeOut:
		for port, ts := range rd.mergeInSpec[h.Node] {
			merged, err := seed.Merge(ts)
			if err != nil {
				return fmt.Errorf("graph %q: merging flows into %q: in-port %d: %w",
					g.name, h.Node, port, err)
			}
			seed = merged
		}
		specs = append(specs, rd.teeSpec("ip/mergeout", h.Node+".src", h.Node, nil))
	case core.EndCut:
		cut := plan.Cuts[h.Port]
		seed = rd.segOutSpec[cut.FromSeg]
		lane := rd.cutLane(h.Port)
		if rd.cutIsLane(h.Port) {
			// The upstream segment composed first and already dialed the
			// pre-bound listener; attach its source here, seeded with the
			// lane's wire spec.
			seed = rd.laneSeed[lane]
			specs = append(specs, rd.recvSpecs(lane)...)
		} else {
			specs = append(specs, remote.StageSpec{Kind: "ip/cutsrc", Name: lane + "/source",
				Params: map[string]string{"lane": lane, "depth": depth}})
		}
	}

	for _, name := range seg.Stages {
		specs = append(specs, rd.stageSpec(name))
	}
	tailStart := len(specs)

	type mergeRelay struct {
		node string
		port int
		lane string
	}
	var pendingRelay *mergeRelay
	switch t := seg.Tail; t.Kind {
	case core.EndSplitTrunk:
		specs = append(specs, rd.teeSpec("ip/teesink", t.Node, t.Node, nil))
	case core.EndMergeIn:
		anchor := rd.nodeOf[plan.MergeDown[t.Node]]
		if anchor == own {
			specs = append(specs, rd.teeSpec("ip/mergein", fmt.Sprintf("%s.in%d", t.Node, t.Port),
				t.Node, map[string]string{"port": strconv.Itoa(t.Port)}))
		} else {
			// Cross-node branch tail: pre-bind the lane listener on the
			// merge's node, dial it from this segment, and compose the
			// relay (listener -> pump -> merge port) afterwards, seeded
			// with this segment's out-spec.
			lane := rd.laneName(t.Node, t.Port)
			// The merge relay is anchored (merge hosts cannot move), so its
			// listener self-acks; the branch's sender still chains back to
			// the branch's own inbound lane.
			addr, err := rd.listen(anchor, lane, false)
			if err != nil {
				return err
			}
			specs = append(specs, rd.sendSpecs(lane, addr, rd.chainLane(si))...)
			pendingRelay = &mergeRelay{node: t.Node, port: t.Port, lane: lane}
		}
	case core.EndCut:
		cut := plan.Cuts[t.Port]
		lane := rd.cutLane(t.Port)
		if rd.cutIsLane(t.Port) {
			addr, err := rd.listen(rd.nodeOf[cut.ToSeg], lane, rd.chainLane(cut.ToSeg) == lane)
			if err != nil {
				return err
			}
			specs = append(specs, rd.sendSpecs(lane, addr, rd.chainLane(si))...)
		} else {
			specs = append(specs, remote.StageSpec{Kind: "ip/cutsink", Name: lane + "/sink",
				Params: map[string]string{"lane": lane, "depth": depth}})
		}
	}

	name := g.name + "/" + seg.Name()
	admit := rd.target.Tenant != nil && seg.Head.Kind == core.EndNone
	if err := rd.compose(own, name, specs, seed, si, admit); err != nil {
		return err
	}
	if tailStart > 0 {
		ts, err := rd.outSpec(own, name, tailStart-1)
		if err != nil {
			return err
		}
		rd.segOutSpec[si] = ts
	} else {
		rd.segOutSpec[si] = seed
	}
	// Lane-tailed segments record the wire spec entering the lane (the
	// spec after their marshal stage, at index tailStart) for the
	// receiver's seed.
	recordLaneSeed := func(lane string) error {
		wire, err := rd.outSpec(own, name, tailStart)
		if err != nil {
			return err
		}
		rd.laneSeed[lane] = wire
		return nil
	}
	if t := seg.Tail; t.Kind == core.EndCut && rd.cutIsLane(t.Port) {
		if err := recordLaneSeed(rd.cutLane(t.Port)); err != nil {
			return err
		}
	}
	if t := seg.Tail; t.Kind == core.EndMergeIn && pendingRelay == nil {
		rd.mergeInSpec[t.Node][t.Port] = rd.segOutSpec[si]
	}
	if r := pendingRelay; r != nil {
		if err := recordLaneSeed(r.lane); err != nil {
			return err
		}
		anchor := rd.nodeOf[plan.MergeDown[r.node]]
		relay := append(rd.recvSpecs(r.lane),
			rd.pumpSpec(r.lane),
			rd.teeSpec("ip/mergein", fmt.Sprintf("%s.in%d", r.node, r.port),
				r.node, map[string]string{"port": strconv.Itoa(r.port)}))
		if err := rd.compose(anchor, r.lane+"/relay", relay, rd.laneSeed[r.lane], -1, false); err != nil {
			return err
		}
		ts, err := rd.outSpec(anchor, r.lane+"/relay", len(relay)-2)
		if err != nil {
			return err
		}
		rd.mergeInSpec[r.node][r.port] = ts
	}
	return nil
}

// remotePipe names one pipeline composed on one node.
type remotePipe struct {
	client int
	name   string
	seg    int // plan segment index, -1 for relay pipelines
}

// remoteDeployment drives a deployed graph through the control clients.
type remoteDeployment struct {
	name    string
	clients []*remote.Client
	names   []string // node names by client index (ping at deploy)
	pipes   []remotePipe
	rd      *remoteDeploy // retained wiring for Stats and Replace

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

// clientSnap returns the current client list and gone markers.  Both slices
// are copy-on-write: AddNode and markGone publish fresh headers under mu and
// never mutate a published slice, so a snapshot stays valid lock-free.
// Replace-path code running under Deployment.rbMu may keep reading r.clients
// directly — AddNode serializes on rbMu too.
func (r *remoteDeployment) clientSnap() ([]*remote.Client, []bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.clients, r.gone
}

// skip reports whether node i has left the deployment (see gone).
func skipNode(gone []bool, i int) bool { return i < len(gone) && gone[i] }

// broadcast sends the event to every node still in the deployment and
// reports the first failure.  It does not stop at one: a dead node must not
// keep the nodes after it from hearing a stop.
func (r *remoteDeployment) broadcast(t events.Type) error {
	clients, gone := r.clientSnap()
	var first error
	for i, c := range clients {
		if skipNode(gone, i) {
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
		r.stop()
		r.mu.Lock()
		if r.startErr == nil {
			r.startErr = fmt.Errorf("graph %q: start failed, deployment rolled back: %w", r.name, err)
		}
		r.mu.Unlock()
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
	out := make([]remotePipe, len(r.pipes))
	copy(out, r.pipes)
	return out
}

func (r *remoteDeployment) isSupervised() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.supervised
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
			tail: p.seg >= 0 && r.rd.plan.Segments[p.seg].Tail.Kind == core.EndNone}
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
	retired := make(map[string]retiredCounts, len(r.retired))
	for k, v := range r.retired {
		retired[k] = v
	}
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
	// Segments in plan order first, relays after — same shape as the local
	// snapshot, so operator tooling and the Balancer read both alike.
	bySeg := make(map[int]remotePipe, len(pipes))
	for _, p := range pipes {
		if p.seg >= 0 {
			bySeg[p.seg] = p
		}
	}
	for i, seg := range r.rd.plan.Segments {
		if p, ok := bySeg[i]; ok {
			add(p, seg.Name(), false)
		}
	}
	for _, p := range pipes {
		if p.seg < 0 {
			add(p, p.name, true)
		}
	}
	r.tenantStats(&st)
	return st
}

// tenantStats folds the deployment tenant's per-node rollups into one
// GraphStats row: admission counters and credit debt sum across nodes;
// Share is the tenant's grant fraction over the grants of every polled
// node's scheduler.  EVERY client of the target is polled, not just the
// nodes currently hosting pipes: a Replace or failover moves pipes off a
// node without moving its historical admission counters, and dropping such
// a node from the poll would deflate the cumulative admitted+sheds rollup.
// An unreachable node contributes its last-known row instead of zero (same
// contract as the pipe rows above).
func (r *remoteDeployment) tenantStats(st *GraphStats) {
	t := r.rd.target.Tenant
	if t == nil {
		return
	}
	row := TenantStats{Tenant: t.Name(), Weight: t.Weight()}
	var granted, grants int64
	polled := false
	clients, gone := r.clientSnap()
	for node := range clients {
		var nodeRow remote.TenantStat
		found, answered := false, false
		// A departed node is not polled (its client is closed), but its
		// historical counters still count: it folds in like an unreachable one.
		if !skipNode(gone, node) {
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
		grants += nodeRow.SchedGrants
	}
	if !polled {
		return
	}
	if grants > 0 {
		row.Share = float64(granted) / float64(grants)
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
	t := r.rd.target.Tenant
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
	spec := r.rd.tenantSpec()
	clients, gone := r.clientSnap()
	for i, c := range clients {
		if skipNode(gone, i) {
			continue
		}
		if err := c.RebindTenant(*spec); err != nil {
			if r.isSupervised() && errors.Is(err, remote.ErrNodeUnreachable) {
				continue
			}
			return fmt.Errorf("graph %q: node %d: rebind: %w", r.name, i, err)
		}
	}
	return nil
}
