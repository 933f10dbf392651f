package elastic

import (
	"fmt"
	"maps"
	"testing"

	"infopipes/internal/control"
	"infopipes/internal/graph"
)

// The loop's decisions as tables: recorded placements, health rows and
// GraphStats in, moves and widths out — no deployment, no network.

// rows builds directory health rows: "up", "down" or "left" per index.
func rows(states ...string) []control.NodeHealth {
	out := make([]control.NodeHealth, len(states))
	for i, s := range states {
		out[i] = control.NodeHealth{Name: fmt.Sprintf("n%d", i), Healthy: s == "up", Left: s == "left"}
	}
	return out
}

func TestEvacuationDecision(t *testing.T) {
	chain := map[string]int{"src>>pump": 0, "mid>>mp": 1, "mid2>>mp2": 1, "out>>sink": 0}
	cases := []struct {
		name    string
		placed  map[string]int
		health  []control.NodeHealth
		vacate  int
		want    map[string]int
		wantErr bool
	}{
		{"failover: orphans go to the emptiest survivor, in sorted order",
			chain, rows("up", "down", "up"), 1,
			map[string]int{"mid2>>mp2": 2, "mid>>mp": 2}, false},
		{"failover: ties go to the lowest index",
			map[string]int{"a": 1, "b": 1}, rows("up", "down", "up"), 1,
			map[string]int{"a": 0, "b": 2}, false},
		{"failover: a down or left node is no survivor",
			chain, rows("up", "down", "down", "left"), 1,
			map[string]int{"mid2>>mp2": 0, "mid>>mp": 0}, false},
		{"failover: nothing hosted, nothing moves",
			chain, rows("up", "up", "down"), 2, nil, false},
		{"failover: no survivor",
			chain, rows("down", "down"), 1, nil, true},
		{"drain: the vacated node is healthy but no target",
			chain, rows("up", "up", "up"), 0,
			map[string]int{"out>>sink": 2, "src>>pump": 2}, false},
		{"drain: a lone node has nowhere to go",
			map[string]int{"a": 0}, rows("up"), 0, nil, true},
	}
	for _, c := range cases {
		got, err := evacuation(c.placed, c.health, c.vacate)
		if (err != nil) != c.wantErr || !maps.Equal(got, c.want) {
			t.Errorf("%s: got %v err=%v, want %v (error %v)", c.name, got, err, c.want, c.wantErr)
		}
	}
}

func TestDrainGuardDecision(t *testing.T) {
	cases := []struct {
		name   string
		health []control.NodeHealth
		hosts  []int
		vacate int
		want   string
	}{
		{"all healthy", rows("up", "up", "up"), []int{2, 1, 1}, 1, ""},
		{"a dead node still hosting", rows("up", "up", "down"), []int{2, 1, 1}, 1, "n2"},
		{"a dead node failed over", rows("up", "up", "down"), []int{3, 1, 0}, 1, ""},
		{"a node that left", rows("up", "up", "left"), []int{2, 1, 0}, 1, ""},
		{"the drained node itself down", rows("up", "down"), []int{2, 1}, 1, ""},
	}
	for _, c := range cases {
		if got, _ := unrecovered(c.health, c.hosts, c.vacate); got != c.want {
			t.Errorf("%s: refuses for %q, want %q", c.name, got, c.want)
		}
	}
}

// stats records one epoch from per-shard item counts and the segment rows;
// each shard's segment count follows from the rows.
func stats(shards []int64, segs ...graph.SegmentStats) graph.GraphStats {
	st := graph.GraphStats{Segments: segs}
	for i, items := range shards {
		n := 0
		for _, s := range segs {
			if s.Shard == i {
				n++
			}
		}
		st.Shards = append(st.Shards, graph.ShardLoad{Items: items, Segments: n})
	}
	return st
}

func TestBalanceDecision(t *testing.T) {
	seg := func(name string, shard int, items int64) graph.SegmentStats {
		return graph.SegmentStats{Name: name, Shard: shard, Items: items}
	}
	policy := graph.BalancePolicy{SkewThreshold: 1.5, MinItems: 32}
	cases := []struct {
		name   string
		epochs []graph.GraphStats
		want   map[string]int // the last epoch's move
	}{
		{"the busiest segment of the hot node goes to the cool one",
			[]graph.GraphStats{stats([]int64{64, 192}, seg("src", 0, 64), seg("f1", 1, 64), seg("f2", 1, 64), seg("sink", 1, 64))},
			map[string]int{"f1": 0}},
		{"below MinItems the epoch carries no signal",
			[]graph.GraphStats{stats([]int64{8, 16}, seg("src", 0, 8), seg("f1", 1, 8), seg("f2", 1, 8), seg("sink", 1, 8))},
			nil},
		{"skew under the threshold",
			[]graph.GraphStats{stats([]int64{100, 120}, seg("a", 0, 100), seg("b", 1, 60), seg("c", 1, 60))},
			nil},
		{"a hot node with one segment is as spread as it gets",
			[]graph.GraphStats{stats([]int64{10, 200}, seg("a", 0, 10), seg("b", 1, 200))},
			nil},
		{"deltas, not totals: a node hot only in the past stays put",
			[]graph.GraphStats{
				stats([]int64{0, 400}, seg("a", 0, 0), seg("b", 1, 200), seg("c", 1, 200)),
				stats([]int64{200, 600}, seg("a", 0, 200), seg("b", 1, 300), seg("c", 1, 300)),
			},
			nil},
	}
	for _, c := range cases {
		b := graph.NewBalancer(policy)
		var got map[string]int
		for _, st := range c.epochs {
			got, _ = b.Plan(st)
		}
		if !maps.Equal(got, c.want) {
			t.Errorf("%s: move %v, want %v", c.name, got, c.want)
		}
	}
}

func TestAutoscaleDecision(t *testing.T) {
	p := Policy{Stage: "work", Min: 1, Max: 4, TargetPerTick: 100}
	for delta, want := range map[int64]int{-5: 1, 0: 1, 1: 1, 100: 1, 101: 2, 350: 4, 10_000: 4} {
		if got := p.width(delta); got != want {
			t.Errorf("width(%d) = %d, want %d", delta, got, want)
		}
	}

	// The first reading only primes; later ones yield the trunk delta, read
	// off the busiest segment.
	var r reading
	trunk := func(items int64) graph.GraphStats {
		return stats([]int64{items}, graph.SegmentStats{Name: "src>>pump", Items: items},
			graph.SegmentStats{Name: "work#0", Items: items / 2})
	}
	if _, ok := r.next(trunk(500)); ok {
		t.Error("the first reading acted; it must only prime")
	}
	if delta, ok := r.next(trunk(800)); !ok || delta != 300 {
		t.Errorf("second reading: delta %d ok=%v, want 300 true", delta, ok)
	}

	floor2 := Policy{Stage: "hot", Min: 2, Max: 3, TargetPerTick: 100}
	cases := []struct {
		name   string
		ps     []Policy
		active map[string]int
		delta  int64
		fold   bool
		want   map[string]int
	}{
		{"hot and unsplit: split it", []Policy{p}, nil, 350, false, map[string]int{"work": 4}},
		{"cool and unsplit: stay a plain stage", []Policy{p}, nil, 90, false, map[string]int{}},
		{"already at the width", []Policy{p}, map[string]int{"work": 2}, 150, false, map[string]int{}},
		{"cold: back to the floor", []Policy{p}, map[string]int{"work": 4}, 0, false, map[string]int{"work": 1}},
		{"fold: every split stage to its Min", []Policy{p, floor2}, map[string]int{"work": 4, "hot": 3}, 10_000, true,
			map[string]int{"work": 1, "hot": 2}},
		{"fold: an unsplit stage stays unsplit", []Policy{floor2}, nil, 0, true, map[string]int{}},
		{"fold: already at the floor", []Policy{p}, map[string]int{"work": 1}, 0, true, map[string]int{}},
	}
	for _, c := range cases {
		if got := resize(c.ps, c.active, c.delta, c.fold); !maps.Equal(got, c.want) {
			t.Errorf("%s: resize %v, want %v", c.name, got, c.want)
		}
	}
}
