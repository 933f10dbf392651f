package control

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"infopipes/internal/graph"
)

// Supervisor turns the directory's down transitions into deployment
// failovers: when a node dies, every supervised deployment's segments on
// that node are re-placed onto healthy survivors through
// Deployment.FailOver — journals replay, dedup watermarks absorb the
// overlap, and the flow keeps running.  Only when no healthy node can take
// the work does the deployment fail, via Deployment.Fail, and Wait surfaces
// the error.
//
// Placement policy is deliberately simple — each orphaned segment goes to
// the healthy survivor currently hosting the fewest segments — and lives
// here, not in the graph: like the balancer, failover placement is control
// policy bound at runtime, never in the flow.
type Supervisor struct {
	// Attempts bounds how many placements are tried per dead node before
	// the deployments are failed (default 3; values below 1 are treated as
	// 1 — a deployment is never failed without a recovery attempt).
	Attempts int
	// Backoff is the base pause between attempts, jittered up to +50%
	// (default 50ms).
	Backoff time.Duration
	// OnFailover, when set, is called after each recovery attempt with the
	// deployment name and the attempt's error (nil on success).
	OnFailover func(deployment string, node string, err error)
	// Gate, when set, serializes this supervisor's recovery reactions with
	// every other control actor moving the same segments — an
	// elastic.Cluster's Drain, an Autoscaler's fold-back — all of which
	// hold the same gate.  The gate is held across one node's whole
	// recovery (all supervised deployments), so a failover and a
	// concurrent drain or scale-down can never race a double-Rebalance of
	// the same segment.  Set it before the first heartbeat.
	Gate sync.Locker

	dir *Directory

	mu   sync.Mutex
	deps []*graph.Deployment
}

// NewSupervisor wires a supervisor into the directory's OnDown hook
// (chaining any hook already installed).  Register deployments with Manage.
func NewSupervisor(dir *Directory) *Supervisor {
	s := &Supervisor{Attempts: 3, Backoff: 50 * time.Millisecond, dir: dir}
	prev := dir.OnDown
	dir.OnDown = func(name string, err error) {
		if prev != nil {
			prev(name, err)
		}
		go s.nodeDown(name, err)
	}
	return s
}

// Manage places a deployment under supervision: its Wait treats an
// unreachable node as pending (the supervisor will either heal it or fail
// it), and the supervisor fails its segments over when their node dies.
func (s *Supervisor) Manage(d *graph.Deployment) {
	d.Supervise()
	s.mu.Lock()
	s.deps = append(s.deps, d)
	s.mu.Unlock()
}

// nodeDown recovers every supervised deployment from one dead node.
func (s *Supervisor) nodeDown(name string, downErr error) {
	dead := s.dir.NodeIndex(name)
	if dead < 0 {
		return
	}
	s.mu.Lock()
	deps := make([]*graph.Deployment, len(s.deps))
	copy(deps, s.deps)
	attempts := s.Attempts
	backoff := s.Backoff
	gate := s.Gate
	s.mu.Unlock()
	if attempts < 1 {
		attempts = 1 // never fail a deployment without one recovery attempt
	}
	if gate != nil {
		gate.Lock()
		defer gate.Unlock()
	}

	for _, d := range deps {
		if d.Finished() {
			continue // the stream already delivered its EOS; nothing to save
		}
		var lastErr error
		recovered := false
		for try := 0; try < attempts; try++ {
			if try > 0 && backoff > 0 {
				//ipvet:allow wallclock failover retry backoff; real recovery time, not flow time
				time.Sleep(backoff + time.Duration(rand.Int63n(int64(backoff)/2+1)))
			}
			hints, err := s.placements(d, dead)
			if err != nil {
				lastErr = err
				continue // a survivor may come back healthy before the next try
			}
			if len(hints) == 0 {
				recovered = true // nothing of this deployment lived there
				break
			}
			err = d.FailOver(dead, hints)
			if s.OnFailover != nil {
				s.OnFailover(d.Name(), name, err)
			}
			if err == nil {
				recovered = true
				break
			}
			lastErr = err
		}
		if !recovered {
			if lastErr == nil {
				lastErr = fmt.Errorf("no recovery attempt succeeded")
			}
			d.Fail(fmt.Errorf("control: node %q down (%v) and failover exhausted %d attempts: %w",
				name, downErr, attempts, lastErr))
		}
	}
}

// placements assigns every segment the deployment has on the dead node to
// the healthy survivor hosting the fewest segments, spreading the orphans.
func (s *Supervisor) placements(d *graph.Deployment, dead int) (map[string]int, error) {
	var survivors []int
	for _, h := range s.dir.Snapshot() {
		if idx := s.dir.NodeIndex(h.Name); h.Healthy && idx != dead {
			survivors = append(survivors, idx)
		}
	}
	return graph.Evacuate(d.SegmentPlacements(), dead, survivors)
}
