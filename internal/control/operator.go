package control

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"infopipes/internal/core"
	"infopipes/internal/graph"
	"infopipes/internal/remote"
	"infopipes/internal/uthread"
)

// Operator serves deployment-level operations — segment placements and
// manual moves — over the control transport the nodes speak (see
// remote.Server), so the failover path is operator-drivable (ipctl replace)
// and not only policy-drivable (elastic.Cluster).  The deploying process owns
// the Deployment objects; Operator is the wire between them and an
// out-of-process operator tool.
type Operator struct {
	mu      sync.Mutex
	deps    map[string]*graph.Deployment
	cat     graph.Catalog
	cluster ClusterOps
	srv     *remote.Server[opRequest, opResponse]
}

// NewOperator builds an empty operator endpoint; register deployments with
// Register and expose it with Serve.
func NewOperator() *Operator {
	o := &Operator{deps: make(map[string]*graph.Deployment)}
	o.srv = remote.NewServer(o.handle)
	return o
}

// OpNode is one cluster membership row on the operator wire.
type OpNode struct {
	Index   int
	Name    string
	Addr    string
	Healthy bool
	Left    bool
	Hosts   int // segments hosted across the cluster's managed deployments
}

// OpClusterEvent is one membership transition (JOIN/DRAIN/LEAVE) on the
// operator wire, sequence-numbered for cursoring.
type OpClusterEvent struct {
	Seq    int
	Kind   string
	Node   string
	Detail string
}

// ClusterOps is the elasticity surface an operator endpoint exposes once
// wired to a cluster (elastic.Cluster implements it): membership rows,
// operator-driven drains, and the membership event log.
type ClusterOps interface {
	NodeRows() []OpNode
	Drain(name string) error
	ClusterEvents(since int) []OpClusterEvent
}

// WithCluster wires the elasticity layer in, enabling the nodes / drain /
// events operator ops (ipctl nodes, ipctl drain, ipctl watch).
func (o *Operator) WithCluster(c ClusterOps) *Operator {
	o.mu.Lock()
	o.cluster = c
	o.mu.Unlock()
	return o
}

func (o *Operator) clusterOps() (ClusterOps, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.cluster == nil {
		return nil, errors.New("control: operator has no cluster (Operator.WithCluster)")
	}
	return o.cluster, nil
}

// Register makes a deployment operable by name (Deployment.Name).  A later
// registration under the same name replaces the earlier one.
func (o *Operator) Register(d *graph.Deployment) {
	o.mu.Lock()
	o.deps[d.Name()] = d
	o.mu.Unlock()
}

// WithCatalog supplies the stage catalog used to build the attach / insert /
// swap stages of operator-driven edits (stage instances cannot cross the
// wire, so they travel as catalog specs).  Without a catalog only detach
// and tenant-rebind edits are accepted.
func (o *Operator) WithCatalog(cat graph.Catalog) *Operator {
	o.mu.Lock()
	o.cat = cat
	o.mu.Unlock()
	return o
}

// Serve binds addr (host:port, empty port for ephemeral) and answers
// operator calls until Close.  Returns the bound address.
func (o *Operator) Serve(addr string) (string, error) {
	bound, err := o.srv.Serve(addr)
	if err != nil {
		return "", fmt.Errorf("control: operator %w", err)
	}
	return bound, nil
}

// Close stops serving and tears down open operator connections.
func (o *Operator) Close() { o.srv.Close() }

// opRequest/opResponse are the operator endpoint's request/response pair on
// the control transport.
type opRequest struct {
	Op         string // deployments | placements | replace | edit | nodes | drain | events
	Deployment string
	Hints      map[string]int
	Edits      []OpEdit
	Node       string // drain target
	Since      int    // events cursor
}

// OpStage carries one stage of an operator-driven edit as a catalog spec;
// the operator builds the live instance server-side.
type OpStage = remote.StageSpec

// OpEdit is one wire-encodable live-edit operation, mirroring the graph
// package's EditOp variants.  Kind selects the variant; only that variant's
// fields are read.
type OpEdit struct {
	Kind string // attach | detach | insert | swap | rebind

	// attach / detach
	Split  string
	Port   int
	Place  int // attach shard/node hint; -1 inherits the trunk's
	Stages []OpStage

	// insert (From >> Stages[0] >> To) / swap (Node becomes Stages[0])
	From, To string
	Node     string

	// rebind (graph.RebindTenant semantics: zero Weight keeps, SetRate /
	// SetPrio gate the rate and priority fields)
	Weight  int
	Rate    float64
	Burst   int
	SetRate bool
	Prio    int
	SetPrio bool
}

type opResponse struct {
	Deployments []string
	Placements  map[string]int
	Nodes       []OpNode
	Events      []OpClusterEvent
}

// deployment resolves a request's target: by name, or — with an empty
// name — the sole registered deployment.
func (o *Operator) deployment(name string) (*graph.Deployment, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if name == "" {
		if len(o.deps) == 1 {
			for _, d := range o.deps {
				return d, nil
			}
		}
		return nil, fmt.Errorf("control: %d deployments registered; name one", len(o.deps))
	}
	d, ok := o.deps[name]
	if !ok {
		return nil, fmt.Errorf("control: unknown deployment %q", name)
	}
	return d, nil
}

func (o *Operator) handle(req opRequest) (opResponse, error) {
	switch req.Op {
	case "deployments":
		o.mu.Lock()
		names := make([]string, 0, len(o.deps))
		for name := range o.deps {
			names = append(names, name)
		}
		o.mu.Unlock()
		sort.Strings(names)
		return opResponse{Deployments: names}, nil
	case "placements", "replace", "edit":
		d, err := o.deployment(req.Deployment)
		if err != nil {
			return opResponse{}, err
		}
		switch req.Op {
		case "replace":
			err = d.Rebalance(req.Hints)
		case "edit":
			var ops []graph.EditOp
			if ops, err = o.editOps(req.Edits); err == nil {
				err = d.Edit(ops...)
			}
		}
		if err != nil {
			return opResponse{}, err
		}
		return opResponse{Placements: d.SegmentPlacements()}, nil
	case "nodes", "drain", "events":
		c, err := o.clusterOps()
		if err != nil {
			return opResponse{}, err
		}
		switch req.Op {
		case "events":
			return opResponse{Events: c.ClusterEvents(req.Since)}, nil
		case "drain":
			if err := c.Drain(req.Node); err != nil {
				return opResponse{}, err
			}
		}
		return opResponse{Nodes: c.NodeRows()}, nil
	default:
		return opResponse{}, fmt.Errorf("control: unknown operator op %q", req.Op)
	}
}

// editOps translates the wire edits into graph.EditOp values, building the
// carried stage specs through the operator's catalog.
func (o *Operator) editOps(edits []OpEdit) ([]graph.EditOp, error) {
	o.mu.Lock()
	cat := o.cat
	o.mu.Unlock()
	ops := make([]graph.EditOp, 0, len(edits))
	for _, e := range edits {
		sts, err := carried(cat, e)
		if err != nil {
			return nil, err
		}
		switch e.Kind {
		case "attach":
			ops = append(ops, graph.AttachBranch{Split: e.Split, Stages: sts, Place: e.Place})
		case "detach":
			ops = append(ops, graph.DetachBranch{Split: e.Split, Port: e.Port})
		case "insert":
			ops = append(ops, graph.InsertStage{From: e.From, To: e.To, Stage: sts[0]})
		case "swap":
			ops = append(ops, graph.SwapStage{Node: e.Node, Stage: sts[0]})
		case "rebind":
			ops = append(ops, graph.RebindTenant{
				Weight: e.Weight,
				Rate:   e.Rate, Burst: e.Burst, SetRate: e.SetRate,
				Prio: uthread.Priority(e.Prio), SetPrio: e.SetPrio,
			})
		}
	}
	return ops, nil
}

// carriedStages bounds how many stages an edit of each kind carries: an
// attach at least one, an insert or a swap exactly one, a detach or a rebind
// none.
var carriedStages = map[string]struct{ min, max int }{
	"attach": {1, math.MaxInt}, "insert": {1, 1}, "swap": {1, 1}, "detach": {0, 0}, "rebind": {0, 0},
}

// carried builds the stages an edit carries through the catalog, once it has
// checked their count against the edit's kind.
func carried(cat graph.Catalog, e OpEdit) ([]core.Stage, error) {
	n, ok := carriedStages[e.Kind]
	if !ok {
		return nil, fmt.Errorf("control: unknown edit kind %q", e.Kind)
	}
	if len(e.Stages) < n.min || len(e.Stages) > n.max {
		return nil, fmt.Errorf("control: %s edit carries %d stages", e.Kind, len(e.Stages))
	}
	sts := make([]core.Stage, 0, len(e.Stages))
	for _, s := range e.Stages {
		if cat == nil {
			return nil, errors.New("control: operator has no stage catalog (Operator.WithCatalog)")
		}
		f, ok := cat[s.Kind]
		if !ok {
			return nil, fmt.Errorf("control: unknown stage kind %q", s.Kind)
		}
		st, err := f(s.Name, s.Args, s.Params)
		if err != nil {
			return nil, err
		}
		sts = append(sts, st)
	}
	return sts, nil
}

// OperatorClient is the dialing side of the operator protocol (ipctl).  It
// inherits the control transport's per-call deadline, broken-connection
// latch, Reconnect and Close from remote.Conn.
type OperatorClient struct {
	*remote.Conn[opRequest, opResponse]
}

// DialOperator connects to an Operator's address.
func DialOperator(addr string) (*OperatorClient, error) {
	conn, err := remote.DialConn[opRequest, opResponse](addr)
	if err != nil {
		return nil, fmt.Errorf("control: dial operator: %w", err)
	}
	return &OperatorClient{conn}, nil
}

// Deployments lists the registered deployment names.
func (c *OperatorClient) Deployments() ([]string, error) {
	resp, err := c.Call(opRequest{Op: "deployments"})
	return resp.Deployments, err
}

// Placements reports a deployment's segment→node-index map.  An empty
// deployment name resolves when exactly one deployment is registered.
func (c *OperatorClient) Placements(deployment string) (map[string]int, error) {
	resp, err := c.Call(opRequest{Op: "placements", Deployment: deployment})
	return resp.Placements, err
}

// Replace moves segments per hints (segment name → destination node index)
// through Deployment.Rebalance and returns the placements afterwards.
func (c *OperatorClient) Replace(deployment string, hints map[string]int) (map[string]int, error) {
	resp, err := c.Call(opRequest{Op: "replace", Deployment: deployment, Hints: hints})
	return resp.Placements, err
}

// Edit applies a batch of live-edit operations through Deployment.Edit —
// one transaction, rejected whole or applied whole — and returns the
// placements afterwards.
func (c *OperatorClient) Edit(deployment string, edits []OpEdit) (map[string]int, error) {
	resp, err := c.Call(opRequest{Op: "edit", Deployment: deployment, Edits: edits})
	return resp.Placements, err
}

// Nodes reports the cluster membership rows (Operator.WithCluster).
func (c *OperatorClient) Nodes() ([]OpNode, error) {
	resp, err := c.Call(opRequest{Op: "nodes"})
	return resp.Nodes, err
}

// DrainNode migrates every segment off the named node through the wired
// cluster's Drain, returning the membership rows afterwards.
func (c *OperatorClient) DrainNode(name string) ([]OpNode, error) {
	resp, err := c.Call(opRequest{Op: "drain", Node: name})
	return resp.Nodes, err
}

// ClusterEvents returns membership events with Seq > since — the watch
// cursor for JOIN/DRAIN/LEAVE streams.
func (c *OperatorClient) ClusterEvents(since int) ([]OpClusterEvent, error) {
	resp, err := c.Call(opRequest{Op: "events", Since: since})
	return resp.Events, err
}
