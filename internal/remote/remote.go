// Package remote implements the distribution support of §2.4 beyond data
// transport: protocols and factories for the creation of remote Infopipe
// components, remote Typespec queries, and delivery of control events to
// remote components through the platform.
//
// A Node hosts a scheduler, an event bus and a registry of component
// factories; it serves a small gob-encoded control protocol over TCP.  A
// Client composes pipelines from stage specifications on a remote node,
// starts and stops them, queries resolved Typespecs, injects control events
// into the node's bus, and manages the node's cluster lanes through typed
// requests (LaneRequest).
package remote

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/events"
	"infopipes/internal/qos"
	"infopipes/internal/typespec"
	"infopipes/internal/uthread"
)

// StageSpec describes one stage of a remote pipeline: the factory kind,
// the stage name, positional arguments and key=value parameters.
type StageSpec struct {
	Kind   string
	Name   string
	Args   []string
	Params map[string]string
}

// TenantSpec carries a deployment's QoS tenant binding across the control
// protocol: the node materializes (once, keyed by name) a local qos.Tenant
// plus a weighted-fair scheduler class from it, so multi-tenant isolation
// spans node boundaries exactly as it does shards.
type TenantSpec struct {
	Name   string
	Weight int
	// Rate/Burst parameterize source admission control (0 = unlimited).
	Rate  float64
	Burst int
	// Shed is the qos.ShedPolicy ordinal; Prio the uthread.Priority level.
	Shed int
	Prio int
}

// TenantStat is one node's QoS rollup for one tenant, served by the tenants
// op: admission outcomes plus the weighted-fair class state against the
// node scheduler's fair clock.
type TenantStat struct {
	Name            string
	Weight          int
	Admitted, Sheds int64
	// CreditDebt is the class's virtual-time lead over the scheduler's fair
	// clock (scaled units, 0 when idle or underserved).
	CreditDebt int64
	// Granted counts the cycles charged to the tenant's threads; SchedCycles
	// the scheduler's total, so callers can compute the tenant's work share.
	Granted, SchedCycles int64
}

// Factory builds a stage from a spec's name and parameters.  Factories are
// registered per node.
type Factory func(name string, params map[string]string) (core.Stage, error)

// SpecFactory is the full-spec factory form: it sees the positional
// arguments too, as the graph deployer's specs carry them.  A kind has one
// factory: registering it again, in either form, replaces the earlier one.
type SpecFactory func(spec StageSpec) (core.Stage, error)

// ErrUnknownFactory is returned when a spec names an unregistered kind.
var ErrUnknownFactory = errors.New("remote: unknown component factory")

// ErrUnknownPipeline is returned for operations on unknown pipeline names.
var ErrUnknownPipeline = errors.New("remote: unknown pipeline")

// Node hosts remotely composable pipelines.
type Node struct {
	name  string
	sched *uthread.Scheduler
	bus   *events.Bus

	mu        sync.Mutex
	factories map[string]SpecFactory
	lanes     func(LaneRequest) (LaneReply, error)
	pipelines map[string]*core.Pipeline
	// tenants/classes hold the node-local materialization of TenantSpecs:
	// one tenant and one weighted-fair class per tenant name (a node has one
	// scheduler, so one class per tenant suffices).
	tenants  map[string]*qos.Tenant
	classes  map[string]*uthread.SchedClass
	srv      *Server[request, response]
	closers  []func()
	started  time.Time
	requests atomic.Int64
}

// NewNode creates a node over the given scheduler and bus.  The bus is the
// event op's and the plain Compose pipelines'; each graph deployment's
// segments share a bus of their own, so one deployment's start, stop or
// failure never reaches another's.
func NewNode(name string, sched *uthread.Scheduler, bus *events.Bus) *Node {
	n := &Node{
		name:      name,
		sched:     sched,
		bus:       bus,
		factories: make(map[string]SpecFactory),
		pipelines: make(map[string]*core.Pipeline),
	}
	n.srv = NewServer(n.handle)
	return n
}

// Name returns the node name (the Typespec location of its pipelines).
func (n *Node) Name() string { return n.name }

// Bus returns the node's own event bus, which no graph segment is on.
func (n *Node) Bus() *events.Bus { return n.bus }

// Scheduler returns the node's scheduler.
func (n *Node) Scheduler() *uthread.Scheduler { return n.sched }

// RegisterFactory adds a component factory under kind.
func (n *Node) RegisterFactory(kind string, f Factory) {
	n.RegisterSpecFactory(kind, func(spec StageSpec) (core.Stage, error) { return f(spec.Name, spec.Params) })
}

// RegisterSpecFactory adds a full-spec component factory under kind.
func (n *Node) RegisterSpecFactory(kind string, f SpecFactory) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.factories[kind] = f
}

// LaneKind names a cluster lane operation of the extended §2.4 protocol.
type LaneKind int

const (
	LaneListen  LaneKind = iota + 1 // pre-bind Lane's rendezvous listener (idempotent; Addr asks for a bind address), reply its address
	LaneDrop                        // close and forget Side of Lane
	LaneRedial                      // point the registered sender of Lane at Addr
	LaneDrained                     // wait, node-bounded, until split Tee and its relay Lanes are empty
	LaneDropTee                     // forget the shared split instance Tee
	LaneAbort                       // tear down every pipeline, tee and lane under Prefix
)

// LaneSide selects which half of a lane a LaneDrop closes: a lane's sender
// and listener may share a node.
type LaneSide int

const (
	BothSides LaneSide = iota
	ListenerSide
	SenderSide
)

// LaneRequest is one lane operation; each kind reads the fields its comment
// names and ignores the rest.
type LaneRequest struct {
	Kind LaneKind
	Lane string
	Side LaneSide
	Addr string
	// Depth bounds a listener's inbox (0 = default).  Durable listeners run
	// the sequence/ack protocol, acknowledging what they consume; a Chained
	// one forwards its downstream watermark instead.
	Depth   int
	Durable bool
	Chained bool
	Tee     string
	Lanes   []string
	Prefix  string
}

// LaneReply answers a LaneRequest: the bound address (listen) or the probe's
// verdict (drained).
type LaneReply struct {
	Addr    string
	Drained bool
}

// HandleLanes installs the handler behind the lane op (the graph support
// does, in EnableNode: it owns the node's listeners, senders and tees).
func (n *Node) HandleLanes(h func(LaneRequest) (LaneReply, error)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.lanes = h
}

// Pipeline returns a locally hosted pipeline by name.
func (n *Node) Pipeline(name string) (*core.Pipeline, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	p, ok := n.pipelines[name]
	return p, ok
}

// PipelineNames lists the hosted pipelines.
func (n *Node) PipelineNames() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.pipelines))
	for name := range n.pipelines {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// RemovePipeline forgets a hosted pipeline, freeing its name for a new
// composition (deployment rollback).  The pipeline itself is returned so
// the caller can stop it; removal does not stop it.
func (n *Node) RemovePipeline(name string) (*core.Pipeline, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	p, ok := n.pipelines[name]
	delete(n.pipelines, name)
	return p, ok
}

// Serve starts the control server on addr ("host:0" picks a port) and
// returns the bound address.  The server runs until Close.
func (n *Node) Serve(addr string) (string, error) {
	// While serving, remote clients can compose and post at any time, so
	// the node's scheduler must idle rather than drain.
	n.sched.AddExternalSource()
	bound, err := n.srv.Serve(addr)
	if err != nil {
		n.sched.ReleaseExternalSource()
		return "", fmt.Errorf("remote: node %s: %w", n.name, err)
	}
	n.mu.Lock()
	n.started = time.Now() //ipvet:allow wallclock uptime baseline for operator-facing health reports
	n.mu.Unlock()
	return bound, nil
}

// RegisterCloser adds a hook run by Close after the control server goes
// down.  The graph support registers the node's lane shutdown here, so
// closing a node in-process behaves like killing its process: every data
// socket dies with the control socket, and peers see EOF instead of zombie
// connections.
func (n *Node) RegisterCloser(fn func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.closers = append(n.closers, fn)
}

// Close shuts the control server down, runs the closers, and waits for
// connection handlers.
func (n *Node) Close() {
	if n.srv.stop() {
		n.sched.ReleaseExternalSource()
	}
	n.mu.Lock()
	closers := n.closers
	n.closers = nil
	n.mu.Unlock()
	for _, fn := range closers {
		fn()
	}
	n.srv.Close()
}

// Wire protocol.
type request struct {
	Op         string // ping | compose | start | stop | detach | query | stats | tenants | rebind | health | event | lane
	Pipeline   string
	Stages     []StageSpec
	StageIndex int
	Event      events.Event
	Prefix     string // stats: pipeline-name prefix
	Lane       LaneRequest
	// SkipEventCheck composes a graph deployment's segment, named
	// "deployment/...", on that deployment's bus and without the
	// per-pipeline §2.3 event-capability check: the deployer runs that
	// graph-wide, since an event emitted in one segment may be handled in
	// another.
	SkipEventCheck bool
	// Seed carries the upstream Typespec into a compose (zero = none): the
	// node seeds spec propagation with it (core.WithInputSpec), so §2.3 flow
	// checking spans node boundaries — a mistyped cross-node edge fails
	// right here, at composition.
	Seed typespec.Typespec
	// Tenant binds the composed pipeline to a QoS tenant (weighted-fair
	// scheduling on the node); Admit additionally inserts the tenant's
	// admission control behind the pipeline's first stage (set for
	// true-source segments only — boundary-headed segments carry
	// already-admitted items).
	Tenant *TenantSpec
	Admit  bool
}

// PipeStat is one hosted pipeline's telemetry row as served by the stats
// op: the alloc-free pump counters plus lifecycle state.
type PipeStat struct {
	Name                     string
	Items, Cycles, BusyNanos int64
	Done, EOS                bool
	Err                      string
}

// Health is the node liveness report served by the health op, the heartbeat
// payload of a cluster directory.
type Health struct {
	Node        string
	Pipelines   int
	Switches    int64
	UptimeNanos int64
	// Requests counts the control requests the node has answered, this one
	// included.
	Requests int64
}

type response struct {
	Spec typespec.Typespec
	Node string
	// Sections is the pump-driven section count of the pipeline a compose
	// just built (buffers add sections).  Spec kinds are opaque to a
	// deployer, so only the node knows whether a stage materialized as a
	// buffer; the graph deployer gates a move on it (see replaceable).
	Sections int
	// Specs is the resolved Typespec after every stage a compose was asked
	// for (an admission gate the node inserted is not counted).
	Specs   []typespec.Typespec
	Lane    LaneReply
	Stats   []PipeStat
	Tenants []TenantStat
	Health  Health
	// Sends/Handles are the event-capability sets of a composed pipeline.
	Sends, Handles []string
}

// handle answers one control request (the Server's handler).
func (n *Node) handle(req request) (response, error) {
	n.requests.Add(1)
	resp := response{Node: n.name}
	switch req.Op {
	case "ping":
	case "compose":
		p, gate, err := n.compose(req)
		if err != nil {
			return response{}, err
		}
		plan := p.Plan()
		resp.Sections = len(plan.Sections)
		resp.Specs = plan.Specs
		if gate >= 0 {
			resp.Specs = slices.Delete(slices.Clone(plan.Specs), gate, gate+1)
		}
		sends, handles := p.EventCapabilities()
		resp.Sends, resp.Handles = typeStrings(sends), typeStrings(handles)
	case "start", "stop", "query":
		p, ok := n.Pipeline(req.Pipeline)
		if !ok {
			return response{}, ErrUnknownPipeline
		}
		switch req.Op {
		case "start":
			p.Start()
		case "stop":
			p.Stop()
		case "query":
			resp.Spec = p.SpecAt(req.StageIndex)
		}
	case "detach":
		// Tear one pipeline down for re-placement: no event broadcast (the
		// rest of the node's pipelines are undisturbed), threads joined,
		// name freed for a recomposition elsewhere.
		p, ok := n.RemovePipeline(req.Pipeline)
		if !ok {
			return response{}, ErrUnknownPipeline
		}
		p.Detach()
		<-p.Done()
	case "stats":
		resp.Stats = n.stats(req.Prefix)
	case "tenants":
		resp.Tenants = n.tenantStats()
	case "rebind":
		if req.Tenant == nil {
			return response{}, errors.New("remote: rebind without tenant spec")
		}
		n.rebindTenant(req.Tenant)
	case "health":
		resp.Health = n.health()
	case "event":
		n.bus.Broadcast(req.Event)
	case "lane":
		n.mu.Lock()
		h := n.lanes
		n.mu.Unlock()
		if h == nil {
			return response{}, fmt.Errorf("remote: node %s manages no lanes (lane op %d)", n.name, req.Lane.Kind)
		}
		var err error
		if resp.Lane, err = h(req.Lane); err != nil {
			return response{}, err
		}
	default:
		return response{}, fmt.Errorf("remote: unknown op %q", req.Op)
	}
	return resp, nil
}

func typeStrings(ts []events.Type) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = string(t)
	}
	return out
}

// stats snapshots the pump counters of every hosted pipeline whose name
// starts with prefix ("" = all).  Row order is unspecified; callers key the
// rows by name.
func (n *Node) stats(prefix string) []PipeStat {
	n.mu.Lock()
	ps := make(map[string]*core.Pipeline, len(n.pipelines))
	for name, p := range n.pipelines {
		if strings.HasPrefix(name, prefix) {
			ps[name] = p
		}
	}
	n.mu.Unlock()
	names := make([]string, 0, len(ps))
	for name := range ps {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]PipeStat, 0, len(ps))
	for _, name := range names {
		p := ps[name]
		st := p.Stats()
		row := PipeStat{Name: name, Items: st.Items, Cycles: st.Cycles,
			BusyNanos: st.BusyNanos, EOS: p.ReachedEOS()}
		select {
		case <-p.Done():
			row.Done = true
		default:
		}
		if err := p.Err(); err != nil {
			row.Err = err.Error()
		}
		out = append(out, row)
	}
	return out
}

// health reports the node's liveness counters (heartbeat payload).
func (n *Node) health() Health {
	n.mu.Lock()
	pipelines := len(n.pipelines)
	started := n.started
	n.mu.Unlock()
	h := Health{Node: n.name, Pipelines: pipelines, Switches: n.sched.Stats().Switches, Requests: n.requests.Load()}
	if !started.IsZero() {
		h.UptimeNanos = int64(time.Since(started)) //ipvet:allow wallclock operator-facing uptime in the health payload
	}
	return h
}

// tenantFor materializes a TenantSpec into the node-local tenant and its
// weighted-fair scheduler class, creating both on first reference (keyed by
// tenant name — every segment of a deployment, and every deployment naming
// the same tenant, shares one pair per node).
func (n *Node) tenantFor(ts *TenantSpec) (*qos.Tenant, *uthread.SchedClass) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.tenants == nil {
		n.tenants = make(map[string]*qos.Tenant)
		n.classes = make(map[string]*uthread.SchedClass)
	}
	t, ok := n.tenants[ts.Name]
	if !ok {
		t = qos.NewTenant(ts.Name,
			qos.Weight(ts.Weight),
			qos.RateLimit(ts.Rate, ts.Burst),
			qos.Shed(qos.ShedPolicy(ts.Shed)),
			qos.Priority(uthread.Priority(ts.Prio)))
		n.tenants[ts.Name] = t
		n.classes[ts.Name] = uthread.NewSchedClass(ts.Name, t.Weight())
	}
	return t, n.classes[ts.Name]
}

// rebindTenant applies a live QoS retune to the node-local materialization
// of a tenant (the rebind op): the tenant's weight, rate/burst and priority
// are restored from the spec, and the weighted-fair class follows the new
// weight.  A node that never referenced the tenant materializes it now with
// the new policy, so segments placed here later (failover, replace) compose
// against the retuned values.  Weight takes effect at the class's next
// ready-queue admission — within one pump cycle; rate on each admission
// gate's next item; priority on compositions made after the change.
func (n *Node) rebindTenant(ts *TenantSpec) {
	t, c := n.tenantFor(ts)
	t.SetWeight(ts.Weight)
	t.SetRate(ts.Rate, ts.Burst)
	t.SetPriority(uthread.Priority(ts.Prio))
	c.SetWeight(ts.Weight)
}

// tenantStats snapshots every tenant hosted on the node, sorted by name.
func (n *Node) tenantStats() []TenantStat {
	n.mu.Lock()
	names := make([]string, 0, len(n.tenants))
	for name := range n.tenants {
		names = append(names, name)
	}
	tenants := n.tenants
	classes := n.classes
	n.mu.Unlock()
	sort.Strings(names)
	cycles := n.sched.Stats().Cycles
	fair := n.sched.FairNow()
	out := make([]TenantStat, 0, len(names))
	for _, name := range names {
		t, c := tenants[name], classes[name]
		row := TenantStat{Name: name, Weight: t.Weight(),
			Admitted: t.Admitted(), Sheds: t.Sheds(),
			Granted: c.Granted(), SchedCycles: cycles}
		if debt := c.VTime() - fair; debt > 0 {
			row.CreditDebt = debt
		}
		out = append(out, row)
	}
	return out
}

// compose builds and registers a pipeline from a compose request's stage
// specs via the factory registry.  A seeded compose starts Typespec
// propagation from the upstream segment's resolved spec instead of a blank
// one.  A tenant-bound compose schedules the pipeline under the tenant's
// weighted-fair class; Admit additionally gates the flow with the tenant's
// admission control behind the first stage; gate is the index the node
// inserted it at (-1 when it did not).
func (n *Node) compose(req request) (p *core.Pipeline, gate int, err error) {
	name := req.Pipeline
	var tenant *qos.Tenant
	var class *uthread.SchedClass
	if req.Tenant != nil {
		tenant, class = n.tenantFor(req.Tenant)
	}
	stages := make([]core.Stage, 0, len(req.Stages)+1)
	defer func() {
		if err != nil {
			closeBuilt(stages)
		}
	}()
	for _, sp := range req.Stages {
		n.mu.Lock()
		f, ok := n.factories[sp.Kind]
		n.mu.Unlock()
		if !ok {
			return nil, -1, fmt.Errorf("%w: %q", ErrUnknownFactory, sp.Kind)
		}
		st, err := f(sp)
		if err != nil {
			return nil, -1, fmt.Errorf("remote: factory %q: %w", sp.Kind, err)
		}
		stages = append(stages, st)
	}
	gate = -1
	if req.Admit && tenant != nil {
		// Over-rate flows shed (or block) before the first queue instead of
		// filling the node's shared buffers and lanes.
		stages, gate = qos.InsertAdmission(stages, name+"/admit", tenant)
	}
	opts := []core.ComposeOption{core.WithInputSpec(req.Seed)}
	if req.SkipEventCheck {
		opts = append(opts, core.SkipEventCapabilityCheck())
	}
	if class != nil {
		opts = append(opts, core.WithSchedClass(class))
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.pipelines[name]; dup {
		return nil, -1, fmt.Errorf("remote: pipeline %q already exists", name)
	}
	// A segment joins its deployment's bus, which lives with its pipelines.
	// n.mu is held from the lookup to the registration, so two segments of
	// one deployment composed at once find one bus (Compose calls only the
	// stages' Typespec getters).
	bus := n.bus
	if dep, _, ok := strings.Cut(name, "/"); ok && req.SkipEventCheck {
		bus = &events.Bus{}
		for other, q := range n.pipelines {
			if strings.HasPrefix(other, dep+"/") && q.Bus() != n.bus {
				bus = q.Bus()
			}
		}
	}
	if p, err = core.Compose(name, n.sched, bus, stages, opts...); err != nil {
		return nil, -1, err
	}
	n.pipelines[name] = p
	return p, gate, nil
}

// closeBuilt closes what the factories of a failed compose opened: every
// built component that is an io.Closer (a dialed lane sender, say).
func closeBuilt(stages []core.Stage) {
	for _, st := range stages {
		if c, ok := st.IsComponent(); ok {
			if cl, ok := c.(io.Closer); ok {
				_ = cl.Close()
			}
		}
	}
}

// Client drives a remote node over the control transport (see Conn, whose
// Addr, Reconnect, SetCallTimeout and Close it inherits).
type Client struct {
	*Conn[request, response]
}

// Dial connects to a node's control address.
func Dial(addr string) (*Client, error) {
	conn, err := DialConn[request, response](addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn}, nil
}

// Ping checks liveness and returns the node name.
func (c *Client) Ping() (string, error) {
	resp, err := c.Call(request{Op: "ping"})
	return resp.Node, err
}

// Compose creates a pipeline on the remote node from stage specs.
func (c *Client) Compose(pipeline string, stages []StageSpec) error {
	_, err := c.Call(request{Op: "compose", Pipeline: pipeline, Stages: stages})
	return err
}

// ComposeSegment creates a pipeline that is one segment of a graph
// deployment: the per-pipeline §2.3 event-capability check is skipped,
// exactly as the local graph deployer skips it — an event emitted in one
// segment may be handled in another.  A pipeline named "deployment/..."
// joins that deployment's own bus on the node.
func (c *Client) ComposeSegment(pipeline string, stages []StageSpec) error {
	_, err := c.Call(request{Op: "compose", Pipeline: pipeline, Stages: stages, SkipEventCheck: true})
	return err
}

// ComposeTenantSegment is ComposeSegment carrying the upstream segment's
// resolved Typespec and an optional QoS tenant binding.  The node seeds
// spec propagation with the seed, so §2.3 flow checking spans the node
// boundary and a mistyped cross-node edge fails at composition with the
// typespec error.  With a tenant, the node schedules the pipeline under the
// tenant's weighted-fair class, and — when admit is set (true-source
// segments) — gates the flow with the tenant's admission control behind the
// first stage.  The reply says everything a deployer goes on to need, so it
// asks the node once.
func (c *Client) ComposeTenantSegment(pipeline string, stages []StageSpec, seed typespec.Typespec, tenant *TenantSpec, admit bool) (Composed, error) {
	resp, err := c.Call(request{Op: "compose", Pipeline: pipeline, Stages: stages,
		SkipEventCheck: true, Seed: seed, Tenant: tenant, Admit: admit})
	return Composed{Sections: resp.Sections, Specs: resp.Specs, Sends: resp.Sends, Handles: resp.Handles}, err
}

// Composed describes a pipeline a node just composed: its pump-driven
// section count (buffers add sections), the resolved Typespec of the flow
// leaving every requested stage, and its event-capability sets.
type Composed struct {
	Sections       int
	Specs          []typespec.Typespec
	Sends, Handles []string
}

// SpecAt returns the resolved Typespec of the flow leaving stage i.
func (c Composed) SpecAt(i int) typespec.Typespec {
	if i < 0 || i >= len(c.Specs) {
		return typespec.Typespec{}
	}
	return c.Specs[i]
}

// Tenants fetches the node's per-tenant QoS rollups (admission counters,
// weighted-fair credit state), sorted by tenant name.
func (c *Client) Tenants() ([]TenantStat, error) {
	resp, err := c.Call(request{Op: "tenants"})
	return resp.Tenants, err
}

// RebindTenant pushes a live QoS retune of a tenant to the node: weight,
// rate/burst and priority are re-applied to the node's materialization of
// the named tenant (created with the new policy if the node never saw it).
// The remote half of the graph layer's RebindTenant edit op.
func (c *Client) RebindTenant(ts TenantSpec) error {
	_, err := c.Call(request{Op: "rebind", Tenant: &ts})
	return err
}

// Detach tears one remote pipeline down without broadcasting any event (the
// node's other pipelines are undisturbed), joins its threads, and frees its
// name — the teardown half of re-placing a segment onto another node.
func (c *Client) Detach(pipeline string) error {
	_, err := c.Call(request{Op: "detach", Pipeline: pipeline})
	return err
}

// Stats snapshots the pump counters of every pipeline on the node whose
// name starts with prefix ("" = all) — remote telemetry over the §2.4
// control protocol.
func (c *Client) Stats(prefix string) ([]PipeStat, error) {
	resp, err := c.Call(request{Op: "stats", Prefix: prefix})
	return resp.Stats, err
}

// Health fetches the node's liveness report (heartbeat).
func (c *Client) Health() (Health, error) {
	resp, err := c.Call(request{Op: "health"})
	return resp.Health, err
}

// Lane runs one cluster lane operation on the node (see LaneKind) — the
// §2.4 extension behind cluster lane management.
func (c *Client) Lane(req LaneRequest) (LaneReply, error) {
	resp, err := c.Call(request{Op: "lane", Lane: req})
	return resp.Lane, err
}

// Start broadcasts the start event on a remote pipeline's bus: a graph
// segment's reaches its deployment on that node, a plain one's the node's.
func (c *Client) Start(pipeline string) error {
	_, err := c.Call(request{Op: "start", Pipeline: pipeline})
	return err
}

// Stop broadcasts the stop event on a remote pipeline's bus (see Start).
func (c *Client) Stop(pipeline string) error {
	_, err := c.Call(request{Op: "stop", Pipeline: pipeline})
	return err
}

// QuerySpec fetches the resolved Typespec after stage idx of a remote
// pipeline (remote Typespec query, §2.4).
func (c *Client) QuerySpec(pipeline string, idx int) (typespec.Typespec, error) {
	resp, err := c.Call(request{Op: "query", Pipeline: pipeline, StageIndex: idx})
	return resp.Spec, err
}

// SendEvent injects a control event into the remote node's own bus (remote
// control-event delivery, §2.4), which no graph segment hears.  Event data
// must be gob-encodable; register custom types with gob.Register.
func (c *Client) SendEvent(ev events.Event) error {
	_, err := c.Call(request{Op: "event", Event: ev})
	return err
}

// ForwardEvents subscribes to a local bus and forwards events accepted by
// filter to the remote node — the bridge that delivers feedback-sensor
// reports from consumer to producer nodes (§2.4, §3.1).  It returns the
// subscription for later removal.  Forwarded events keep their Origin, so
// a filter on Origin prevents reflection loops in bidirectional bridges.
func ForwardEvents(local *events.Bus, c *Client, filter func(events.Event) bool) events.Subscription {
	return local.SubscribeFunc(func(ev events.Event) {
		if filter != nil && !filter(ev) {
			return
		}
		_ = c.SendEvent(ev) // best-effort, like any control path
	})
}
