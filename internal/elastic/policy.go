package elastic

import (
	"infopipes/internal/control"
	"infopipes/internal/graph"
)

// The loop's decisions, each a pure function of an immutable view: the
// directory's health rows, a deployment's SegmentPlacements and its
// GraphStats.  The balance move is graph.Balancer.Plan.

// evacuation is the placement failover and drain both decide: every segment
// placed on vacate goes to the healthy survivor hosting the fewest segments
// (graph.Evacuate).  health is the directory's snapshot, indexed by
// registration position like the placements; a node that left is never
// healthy.
func evacuation(placed map[string]int, health []control.NodeHealth, vacate int) (map[string]int, error) {
	var survivors []int
	for i, h := range health {
		if h.Healthy && i != vacate {
			survivors = append(survivors, i)
		}
	}
	return graph.Evacuate(placed, vacate, survivors)
}

// unrecovered is the drain's guard: a node other than vacate that is down
// (and has not left) but still hosts pipelines — hosts[i] counts them for
// node i — has a failover still to apply, and a move now would redial a
// neighbour on the dead node.  It returns that node and its count (0: none).
func unrecovered(health []control.NodeHealth, hosts []int, vacate int) (string, int) {
	for i, h := range health {
		if !h.Healthy && !h.Left && i != vacate && hosts[i] > 0 {
			return h.Name, hosts[i]
		}
	}
	return "", 0
}

// width is the autoscale decision for one stage: the replicas an item delta
// per tick needs, ceil(delta / TargetPerTick), clamped to [Min, Max].
func (p Policy) width(delta int64) int {
	w := int((delta + p.TargetPerTick - 1) / p.TargetPerTick)
	return min(max(w, p.Min), p.Max)
}

// reading is the autoscaler's memory between ticks: the trunk item count it
// last read.
type reading struct {
	last   int64
	primed bool
}

// next reads one stats snapshot and returns the item delta since the last
// reading; the first reading, and the first after a fold, only primes
// (false).
// The trunk count is the max per-segment Items: every item crosses the
// busiest trunk segment exactly once, however many branch segments a scaled
// stage fans into.
func (r *reading) next(st graph.GraphStats) (int64, bool) {
	var now int64
	for _, seg := range st.Segments {
		now = max(now, seg.Items)
	}
	delta, primed := now-r.last, r.primed
	r.last, r.primed = now, true
	return delta, primed
}

// resize decides the widths that must change, given each stage's current
// width (0 while it has no split) and the item delta since the last tick.
// A stage gets its split only once it needs two replicas.  fold (a node
// died) drops every split stage to its Min instead.
func resize(ps []Policy, active map[string]int, delta int64, fold bool) map[string]int {
	out := make(map[string]int)
	for _, p := range ps {
		cur, want := active[p.Stage], p.width(delta)
		if fold {
			want = p.Min
		}
		if want == cur || cur == 0 && (fold || want < 2) {
			continue
		}
		out[p.Stage] = want
	}
	return out
}
