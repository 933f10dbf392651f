package graph

import (
	"fmt"
	"strings"
)

// SegmentStats is the activity snapshot of one deployed pipeline: a graph
// segment, a node host's relay, or a detached branch still draining.  The
// counters are cumulative since deploy (they survive rebalances: the
// recomposed pipeline is a new instance, so the deployment folds the
// retired generations' counts in).
type SegmentStats struct {
	// Name is the segment's diagnostic name ("first>>last"), or the
	// pipeline's own name off the plan.
	Name string
	// Shard is the index the pipeline currently runs on (0 on a single
	// scheduler).
	Shard int
	// Relay marks a pipeline off the plan: on nodes, the relay beside a merge
	// whose in-port is a lane; on a scheduler or a group, which compose no
	// relay, a detached branch still draining.
	Relay bool
	// Finished reports whether the segment's stream fully ended.
	Finished bool
	// Items, Cycles and BusyNanos aggregate the pump-loop counters; see
	// core.PipeStats.
	Items, Cycles, BusyNanos int64
}

// TenantStats is the per-tenant QoS rollup of one deployment: admission
// outcomes from the tenant's counters, and weighted-fair scheduling state
// folded across the shards the tenant's pipelines touch.
type TenantStats struct {
	// Tenant is the tenant name; Weight its fair-share weight.
	Tenant string
	Weight int
	// Admitted counts items that passed admission control at the
	// deployment's true sources; Sheds counts items dropped (or senders
	// rejected) there instead of overflowing shared queues.
	Admitted, Sheds int64
	// CreditDebt is the tenant's virtual-time lead over the schedulers'
	// fair clocks, summed across shards (scaled units): how much service
	// the tenant has drawn ahead of its weighted share.  Zero for an idle
	// or underserved tenant.
	CreditDebt int64
	// Share is the tenant's fraction of the cycles charged on the shards it
	// runs on (0..1; 0 when the schedulers are idle): its share of work,
	// however pumps batch their cycles.
	Share float64
}

// ShardLoad aggregates a deployment's activity per shard.
type ShardLoad struct {
	// Pipelines counts the deployment's pipelines currently placed on the
	// shard (relays and drains included, finished ones excluded).
	Pipelines int
	// Segments counts the unfinished plan segments currently on the shard
	// (the units a rebalance can move).
	Segments int
	// Items and BusyNanos sum the pump counters of the work that RAN on
	// this shard (cumulative since deploy; a migrated segment's history
	// stays attributed to the shard that executed it).
	Items, BusyNanos int64
}

// GraphStats is the live telemetry of one deployment, collected alloc-free
// on the hot path and folded on demand by Deployment.Stats from per-pipeline
// rows, whichever target took them.  On remote (OnNodes) deployments Shard
// indices name cluster nodes (see Nodes), and the same skew math drives
// elastic.Cluster's balance policy.
type GraphStats struct {
	// Segments lists the graph's segments in plan order, then the
	// pipelines off the plan (Relay).
	Segments []SegmentStats
	// Shards aggregates per shard — one entry per scheduler shard on local
	// targets, one per cluster node on remote deployments.
	Shards []ShardLoad
	// Nodes names the cluster nodes behind the Shards indices (remote
	// deployments only; empty on local targets).
	Nodes []string
	// Tenants holds the tenant's QoS rollup, folded across shards or nodes:
	// at most one row (a deployment binds one tenant).
	Tenants []TenantStats
}

// Skew reports the ratio between the busiest and idlest shard by item
// count (1 = balanced).  Diagnostics; the Balancer works on epoch deltas
// instead.
func (st GraphStats) Skew() float64 {
	if len(st.Shards) == 0 {
		return 1
	}
	min, max := st.Shards[0].Items, st.Shards[0].Items
	for _, sh := range st.Shards[1:] {
		if sh.Items < min {
			min = sh.Items
		}
		if sh.Items > max {
			max = sh.Items
		}
	}
	if max == 0 {
		return 1 // idle deployment: balanced by definition
	}
	return float64(max) / float64(min+1)
}

// String renders a compact one-line-per-row summary for operator tooling.
func (st GraphStats) String() string {
	var b strings.Builder
	for _, seg := range st.Segments {
		kind := "seg"
		if seg.Relay {
			kind = "rly"
		}
		state := "live"
		if seg.Finished {
			state = "done"
		}
		fmt.Fprintf(&b, "%s %-28s shard=%d items=%d busy_ms=%d %s\n",
			kind, seg.Name, seg.Shard, seg.Items, seg.BusyNanos/1e6, state)
	}
	for i, sh := range st.Shards {
		fmt.Fprintf(&b, "shd %-28d pipelines=%d items=%d busy_ms=%d\n",
			i, sh.Pipelines, sh.Items, sh.BusyNanos/1e6)
	}
	for _, t := range st.Tenants {
		fmt.Fprintf(&b, "tnt %-28s weight=%d admitted=%d sheds=%d debt=%d share=%.2f\n",
			t.Tenant, t.Weight, t.Admitted, t.Sheds, t.CreditDebt, t.Share)
	}
	return b.String()
}
