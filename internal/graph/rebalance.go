package graph

import (
	"errors"
	"sort"
)

// Rebalancing errors.
var (
	// ErrNotRebalancable marks a deployment whose target has no placement
	// dimension to adjust (single scheduler), and a failover off a shard
	// (shards do not die under a deployment).
	ErrNotRebalancable = errors.New("graph: deployment target cannot rebalance (deploy OnGroup or OnNodes)")
	// ErrNotMigratable marks a reconfiguration whose affected set holds a
	// pipeline running coroutine threads (the quiesce parks pump-cycle
	// boundaries: direct placements only); one outside the set runs on.
	ErrNotMigratable = errors.New("graph: pipeline runs coroutine threads; migration supports direct placements only")
	// ErrDeploymentDone marks a Rebalance after the deployment finished.
	ErrDeploymentDone = errors.New("graph: deployment already finished")
)

// Rebalance moves segments of a live deployment without losing an in-flight
// item: hints map segment names (see SegmentPlacements) to shard indices on
// a group, node indices on nodes; segments not named stay put.  A group
// quiesces the moved segments at a pump-cycle boundary (the buffers of the
// cuts and tees carry the items along) and recomposes the same stage
// instances on their new schedulers at one instant of the group clock, so
// the item trace is the one an unmoved run writes; every other pipeline runs
// on.  Nodes move each segment on its own over durable lanes (deploy
// WithClusterLanes); a segment that holds stream position or shared tee
// state refuses with ErrNotReplaceable (see Replaceable).  Concurrent calls
// serialize, a Stop that races one applies when it completes, and a single
// scheduler answers ErrNotRebalancable.
func (d *Deployment) Rebalance(hints map[string]int) error {
	return d.reconfigure("rebalance", []EditOp{moveOp(hints)})
}

// BalancePolicy parameterizes the automatic rebalancer.
type BalancePolicy struct {
	// SkewThreshold triggers a move when the busiest shard carried more
	// than SkewThreshold times the items of the idlest shard during the
	// last epoch (default 2.0).
	SkewThreshold float64
	// MinItems suppresses moves while fewer than MinItems items flowed in
	// the epoch — start-up and drain-down phases carry no signal
	// (default 1024).
	MinItems int64
	// Movable, when set, restricts which segments the balancer may propose
	// moving.  Left nil, the balancer skips the segments Deployment.Replaceable
	// refuses (on nodes: sources, tee hosts, directly wired boundaries).
	Movable func(segment string) bool
}

// Balancer derives rebalance hints from the item-count deltas between
// successive Stats epochs: when the per-shard load skew exceeds the policy
// threshold, it proposes moving the busiest migratable segment of the
// hottest shard to the coolest shard.  Drive it from operator code:
//
//	b := graph.NewBalancer(graph.BalancePolicy{})
//	for range time.Tick(epoch) {
//	    if moved, err := d.Balance(b); err != nil { ... }
//	}
type Balancer struct {
	policy    BalancePolicy
	prevSeg   map[string]int64
	prevShard []int64
}

// NewBalancer creates a balancer; zero policy fields take the defaults.
func NewBalancer(p BalancePolicy) *Balancer {
	if p.SkewThreshold <= 1 {
		p.SkewThreshold = 2.0
	}
	if p.MinItems <= 0 {
		p.MinItems = 1024
	}
	return &Balancer{policy: p, prevSeg: make(map[string]int64)}
}

// Plan inspects one stats epoch and proposes rebalance hints, reporting
// whether a move is warranted.  It updates the balancer's epoch baseline
// either way.
func (b *Balancer) Plan(st GraphStats) (map[string]int, bool) {
	if len(st.Shards) < 2 {
		return nil, false
	}
	if b.prevShard == nil {
		b.prevShard = make([]int64, len(st.Shards))
	}
	shardDelta := make([]int64, len(st.Shards))
	var total int64
	for i, sh := range st.Shards {
		shardDelta[i] = sh.Items - b.prevShard[i]
		total += shardDelta[i]
		b.prevShard[i] = sh.Items
	}
	segDelta := make(map[string]int64, len(st.Segments))
	for _, seg := range st.Segments {
		segDelta[seg.Name] = seg.Items - b.prevSeg[seg.Name]
		b.prevSeg[seg.Name] = seg.Items
	}
	if total < b.policy.MinItems {
		return nil, false
	}
	hot, cool := 0, 0
	for i, dlt := range shardDelta {
		if dlt > shardDelta[hot] {
			hot = i
		}
		if dlt < shardDelta[cool] ||
			(dlt == shardDelta[cool] && st.Shards[i].Segments < st.Shards[cool].Segments) {
			cool = i
		}
	}
	if hot == cool ||
		float64(shardDelta[hot]) < b.policy.SkewThreshold*float64(shardDelta[cool]+1) {
		return nil, false
	}
	// A shard hosting a single movable segment is as spread as it gets:
	// relocating its only load would merely rename the hot shard (and
	// ping-pong forever against an idle peer).
	if st.Shards[hot].Segments < 2 {
		return nil, false
	}
	// Busiest still-flowing segment on the hottest shard.  Moving the
	// single hottest segment per epoch keeps the controller stable.
	best, bestDelta := "", int64(0)
	for _, seg := range st.Segments {
		if seg.Shard != hot || seg.Finished || seg.Relay {
			continue
		}
		if b.policy.Movable != nil && !b.policy.Movable(seg.Name) {
			continue
		}
		if dlt := segDelta[seg.Name]; dlt > bestDelta {
			best, bestDelta = seg.Name, dlt
		}
	}
	if best == "" {
		return nil, false
	}
	return map[string]int{best: cool}, true
}

// Balance runs one epoch of the balancer against the deployment: snapshot
// stats, plan, and Rebalance if warranted; a policy without a Movable
// filter proposes only segments that are Replaceable.  Reports whether a
// move was made.
func (d *Deployment) Balance(b *Balancer) (moved bool, err error) {
	if b.policy.Movable == nil {
		b.policy.Movable = func(seg string) bool { return d.Replaceable(seg) == nil }
	}
	// One external action: the move lands at the instant the stats were read.
	d.External(func() {
		hints, ok := b.Plan(d.Stats())
		if !ok {
			return
		}
		if err = d.Rebalance(hints); err == nil {
			moved = true
		}
	})
	return moved, err
}

// Evacuate plans the moves that vacate one node (or shard): given where
// every segment runs (SegmentPlacements), the slot to vacate and the usable
// survivors, each segment hosted there goes to the survivor hosting the
// fewest segments at that point — orphans in sorted order, ties to the
// lowest index, so the same cluster state always evacuates the same way.
// It returns no hints when the slot hosts nothing.
func Evacuate(placed map[string]int, vacate int, survivors []int) (map[string]int, error) {
	load := make(map[int]int, len(survivors))
	for _, idx := range survivors {
		load[idx] = 0
	}
	var orphans []string
	for seg, slot := range placed {
		if slot == vacate {
			orphans = append(orphans, seg)
		} else if _, ok := load[slot]; ok {
			load[slot]++
		}
	}
	if len(orphans) == 0 {
		return nil, nil
	}
	if len(survivors) == 0 {
		return nil, errors.New("graph: no healthy node left to evacuate onto")
	}
	sort.Strings(orphans)
	hints := make(map[string]int, len(orphans))
	for _, seg := range orphans {
		best := survivors[0]
		for _, idx := range survivors[1:] {
			if load[idx] < load[best] || (load[idx] == load[best] && idx < best) {
				best = idx
			}
		}
		hints[seg] = best
		load[best]++
	}
	return hints, nil
}
