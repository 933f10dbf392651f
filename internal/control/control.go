// Package control is the cluster control plane: the operator-facing layer
// that turns a set of ipnode processes into an operable cluster, built
// entirely on the extended §2.4 remote-setup protocol.
//
// Three pieces compose:
//
//   - Directory — a node registry with heartbeat health checking.  Nodes
//     are registered by control address; each Heartbeat polls every node's
//     health op, marks nodes down after consecutive missed heartbeats
//     (surfacing the wrapped remote.ErrNodeUnreachable instead of letting
//     deployments hang) and returns the transitions to its caller — the
//     elastic.Cluster control loop, which heartbeats on its own clock and
//     fails segments over.  Its clients go to graph.OnNodes so deployment
//     and monitoring share connections.
//
//   - Remote telemetry — graph deployments on OnNodes targets implement
//     Stats() by fanning the stats op out to every node and folding the
//     per-pipeline pump counters into one GraphStats with node attribution
//     (see graph.GraphStats.Nodes); cmd/ipctl renders the same snapshot for
//     operators.
//
//   - Operator — the deployment-level endpoint out-of-process tools
//     (ipctl replace / edit / nodes / drain / watch) drive.
//
// RAFDA's argument — distribution policy bound and re-bound separately from
// application logic — is the through-line: the graph says nothing about
// hosts, the deployment binds hosts late, and the control plane re-binds
// them while the flow runs.
package control

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"infopipes/internal/remote"
)

// NodeHealth is one directory entry's last known state.
type NodeHealth struct {
	Name string
	Addr string
	// Healthy is false once MaxMisses consecutive heartbeats failed.
	Healthy bool
	// Misses counts consecutive failed heartbeats (0 when healthy).
	Misses int
	// Pipelines, Switches and Uptime mirror the node's health report.
	Pipelines int
	Switches  int64
	Uptime    time.Duration
	// Err is the last heartbeat failure (nil while healthy).
	Err error
	// Left marks a node that was drained and unregistered: the entry stays
	// (node indices are registration positions and must not shift under
	// running deployments) but the node is never probed, never counted
	// healthy, and never a placement target again.
	Left bool
}

// Directory is the cluster node registry: it owns one control client per
// registered node, heartbeats them when asked, and reports health.
// Register every node and hand Clients() to graph.OnNodes; an
// elastic.Cluster heartbeats it on the loop's clock.
type Directory struct {
	// MaxMisses is the number of consecutive failed heartbeats before a
	// node is marked down (default 3).
	MaxMisses int
	// ProbeRetries is how many times a single failed probe is retried —
	// reconnecting the control client and backing off in between — before it
	// counts as a missed heartbeat (default 2).  A slow accept queue or a
	// one-off TCP reset then never flaps the node, while a genuinely dead
	// node still misses on schedule: the retries happen inside one probe.
	ProbeRetries int
	// ProbeBackoff is the base pause between probe retries (default 25ms);
	// each pause is jittered up to +50% so a cluster of directories does not
	// retry in lockstep.
	ProbeBackoff time.Duration

	mu      sync.Mutex
	names   []string
	clients map[string]*remote.Client
	health  map[string]*NodeHealth
}

// NewDirectory creates an empty node registry.
func NewDirectory() *Directory {
	return &Directory{
		MaxMisses:    3,
		ProbeRetries: 2,
		ProbeBackoff: 25 * time.Millisecond,
		clients:      make(map[string]*remote.Client),
		health:       make(map[string]*NodeHealth),
	}
}

// Register dials a node's control address, pings it, and adds it to the
// registry under its own reported name.
func (d *Directory) Register(addr string) (string, error) {
	c, err := remote.Dial(addr)
	if err != nil {
		return "", err
	}
	name, err := c.Ping()
	if err != nil {
		c.Close()
		return "", err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.clients[name]; dup {
		c.Close()
		return "", fmt.Errorf("control: node %q already registered", name)
	}
	d.names = append(d.names, name)
	d.clients[name] = c
	d.health[name] = &NodeHealth{Name: name, Addr: addr, Healthy: true}
	return name, nil
}

// Unregister retires a node from the registry: its control client closes
// and the entry is tombstoned — kept in place (so registration-order node
// indices stay aligned with running OnNodes deployments) but unhealthy,
// skipped by heartbeats, and reported with Left set.  The caller is
// responsible for having drained the node first (elastic.Cluster.Drain);
// Unregister itself moves no segments.  A left name never re-registers —
// a rejoining process must present a fresh name and takes a fresh index.
func (d *Directory) Unregister(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	entry, ok := d.health[name]
	if !ok {
		return fmt.Errorf("control: node %q not registered", name)
	}
	if entry.Left {
		return fmt.Errorf("control: node %q already left", name)
	}
	entry.Left = true
	entry.Healthy = false
	entry.Err = nil
	if c := d.clients[name]; c != nil {
		c.Close()
	}
	return nil
}

// Names lists the registered nodes in registration order.
func (d *Directory) Names() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, len(d.names))
	copy(out, d.names)
	return out
}

// Client returns the control client of a registered node.
func (d *Directory) Client(name string) (*remote.Client, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	c, ok := d.clients[name]
	return c, ok
}

// Clients returns the control clients in registration order — the argument
// list for graph.OnNodes, so deployment, telemetry and heartbeats share the
// same node ordering (GraphStats node indices line up with Names).
func (d *Directory) Clients() []*remote.Client {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*remote.Client, 0, len(d.names))
	for _, name := range d.names {
		out = append(out, d.clients[name])
	}
	return out
}

// Heartbeat polls every registered node's health op once and updates the
// registry: a reachable node refreshes its entry, an unreachable one counts
// a miss and transitions to down at MaxMisses.  Returns the number of
// healthy nodes and, in registration order, the entries whose health
// flipped (down, or back up), once per flip.
//
// Nodes are probed CONCURRENTLY: a dead node burns its ProbeRetries
// reconnect attempts (with jittered backoffs) without delaying the probes
// of every node after it, so down-detection latency stays one probe's
// worth no matter how many nodes are down.
func (d *Directory) Heartbeat() (healthy int, changed []NodeHealth) {
	d.mu.Lock()
	names := make([]string, 0, len(d.names))
	for _, n := range d.names {
		if d.health[n].Left {
			continue // tombstone: drained and gone, never probed again
		}
		names = append(names, n)
	}
	clients := make(map[string]*remote.Client, len(names))
	for _, n := range names {
		clients[n] = d.clients[n]
	}
	maxMisses := d.MaxMisses
	retries := d.ProbeRetries
	backoff := d.ProbeBackoff
	d.mu.Unlock()

	type probeResult struct {
		h   remote.Health
		err error
	}
	results := make([]probeResult, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, c *remote.Client) {
			defer wg.Done()
			h, err := d.probe(c, retries, backoff)
			results[i] = probeResult{h: h, err: err}
		}(i, clients[name])
	}
	wg.Wait()

	for i, name := range names {
		h, err := results[i].h, results[i].err
		d.mu.Lock()
		entry := d.health[name]
		if err == nil {
			wentUp := !entry.Healthy
			entry.Healthy = true
			entry.Misses = 0
			entry.Pipelines = h.Pipelines
			entry.Switches = h.Switches
			entry.Uptime = time.Duration(h.UptimeNanos)
			entry.Err = nil
			healthy++
			if wentUp {
				changed = append(changed, *entry)
			}
			d.mu.Unlock()
			continue
		}
		entry.Misses++
		entry.Err = err
		if entry.Healthy && entry.Misses >= maxMisses {
			entry.Healthy = false
			changed = append(changed, *entry)
		}
		d.mu.Unlock()
	}
	return healthy, changed
}

// probe performs one health check with ProbeRetries in-probe retries: a
// failed call poisons the client connection (every later call would fail
// instantly and the node would flap down on a single hiccup), so each retry
// reconnects before asking again, after a jittered backoff.
func (d *Directory) probe(c *remote.Client, retries int, backoff time.Duration) (remote.Health, error) {
	h, err := c.Health()
	for try := 0; err != nil && try < retries; try++ {
		if backoff > 0 {
			jit := time.Duration(rand.Int63n(int64(backoff)/2 + 1))
			//ipvet:allow wallclock probe retry backoff against a real network peer
			time.Sleep(backoff + jit)
		}
		if rerr := c.Reconnect(); rerr != nil {
			err = rerr
			continue
		}
		h, err = c.Health()
	}
	return h, err
}

// NodeIndex maps a node name to its registration-order index — the node
// numbering used by graph.OnNodes deployments (SegmentPlacements, FailOver).
// Returns -1 for unknown names.
func (d *Directory) NodeIndex(name string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, n := range d.names {
		if n == name {
			return i
		}
	}
	return -1
}

// Snapshot reports every node's last known health, in registration order.
func (d *Directory) Snapshot() []NodeHealth {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]NodeHealth, 0, len(d.names))
	for _, name := range d.names {
		out = append(out, *d.health[name])
	}
	return out
}

// Healthy reports whether a node is currently considered up.
func (d *Directory) Healthy(name string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	h, ok := d.health[name]
	return ok && h.Healthy
}

// Close closes every control client.
func (d *Directory) Close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, c := range d.clients {
		c.Close()
	}
}
