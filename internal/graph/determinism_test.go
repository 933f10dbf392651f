package graph_test

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/graph"
	"infopipes/internal/item"
	"infopipes/internal/pipes"
	"infopipes/internal/shard"
	"infopipes/internal/typespec"
	"infopipes/internal/uthread"
	"infopipes/internal/vclock"
)

// This file is the randomized cross-target determinism harness: seeded
// random DAGs — route/copy splits, merges, cuts, random placement hints —
// deployed on one scheduler and on 2- and 4-shard groups must produce
// byte-identical per-sink item traces, and a rebalance in the middle of the
// group run must leave the post-drain trace untouched.
//
// The generated graphs keep the property that makes arrival-order merging
// placement-invariant under the shared virtual clock: a single clocked
// source (one item per tick, fully cascading through the eager free-pump
// segments before the next tick can fire) and route tees on every path that
// reconverges, so no merge ever sees two same-instant arrivals racing.
// Copy tees are generated too, but their branches never share a merge —
// each recursion builds its own tees and sinks.

// dagGen builds one random graph; the same seed reproduces the same
// topology, PRNG-draw for PRNG-draw, independent of the target it will be
// deployed on (hints are clamped to the target's shard count at apply
// time, costing no draws).
type dagGen struct {
	r      *rand.Rand
	g      *graph.Graph
	shards int
	items  int64
	period time.Duration // of the clocked source
	nextID int
	sinks  []*pipes.CollectSink

	// Bookkeeping for the live-edit run (pure recording: no PRNG draws, so
	// the topology stays seed-stable).  plain marks names that are plain
	// stages; edges lists insert-eligible plain->plain same-segment edges;
	// fids remembers each filter's payload constant so a swap can install an
	// equivalent implementation; splits lists the tee names; detachable
	// lists pure-sink branches a DetachBranch may remove.
	plain      map[string]bool
	edges      [][2]string
	fids       map[string]int64
	filters    []string
	splits     []string
	detachable []branchPort
	structN    int
}

// branchPort names one detachable pure-sink branch of a split.
type branchPort struct {
	split string
	port  int
	sink  string
}

const genHintSpace = 4 // hints are drawn in [0,4) and clamped per target

func newDagGen(seed int64, shards int) *dagGen {
	r := rand.New(rand.NewSource(seed))
	return &dagGen{
		r:      r,
		g:      graph.New(fmt.Sprintf("dag%d", seed)),
		shards: shards,
		items:  300 + int64(r.Intn(200)),
		plain:  make(map[string]bool),
		fids:   make(map[string]int64),
	}
}

func (d *dagGen) name(kind string) string {
	d.nextID++
	return fmt.Sprintf("%s%d", kind, d.nextID)
}

// hintOpt rolls a placement hint for one segment unit: none half the time,
// otherwise a shard drawn from the hint space and clamped to the target.
func (d *dagGen) hintOpt() []graph.NodeOption {
	if d.r.Intn(2) == 0 {
		return nil
	}
	h := d.r.Intn(genHintSpace)
	return []graph.NodeOption{graph.Place(h % d.shards)}
}

// filter appends a deterministic payload-mixing filter stage.
func (d *dagGen) filter(opts []graph.NodeOption) string {
	name := d.name("f")
	fid := int64(d.nextID)
	f := pipes.NewFuncFilter(name, func(_ *core.Ctx, it *item.Item) (*item.Item, error) {
		p, _ := it.Payload.(int64)
		it.Payload = p*31 + fid
		return it, nil
	})
	d.g.Add(core.Comp(f), opts...)
	d.plain[name] = true
	d.fids[name] = fid
	d.filters = append(d.filters, name)
	return name
}

// unit declares one segment's worth of stages — optional filters around
// exactly one free pump, sharing one placement hint — and pipes them onto
// from.  Returns the last stage name.
func (d *dagGen) unit(from string) string {
	opts := d.hintOpt()
	refs := []string{from}
	for i := d.r.Intn(2); i > 0; i-- {
		refs = append(refs, d.filter(opts))
	}
	pump := d.name("p")
	d.g.Add(core.Pmp(pipes.NewFreePump(pump)), opts...)
	d.plain[pump] = true
	refs = append(refs, pump)
	if d.r.Intn(2) == 0 {
		refs = append(refs, d.filter(opts))
	}
	d.g.Pipe(refs...)
	d.recordEdges(refs)
	return refs[len(refs)-1]
}

// recordEdges remembers the insert-eligible edges of one Pipe call: both
// endpoints plain stages (tee ports, merges and cut heads are excluded by
// the plain set).
func (d *dagGen) recordEdges(refs []string) {
	for i := 0; i+1 < len(refs); i++ {
		if d.plain[refs[i]] && d.plain[refs[i+1]] {
			d.edges = append(d.edges, [2]string{refs[i], refs[i+1]})
		}
	}
}

// terminate ends the flow at cur with a collecting sink (piped into the
// current segment).
func (d *dagGen) terminate(cur string) {
	sink := pipes.NewCollectSink(d.name("sink"))
	d.g.Add(core.Comp(sink))
	d.g.Pipe(cur, sink.Name())
	d.plain[sink.Name()] = true
	d.recordEdges([]string{cur, sink.Name()})
	d.sinks = append(d.sinks, sink)
}

// extend continues the flow from cur (the tail stage of a completed
// segment) with a random construct: a cut, a route-split diamond, a copy
// fan-out, or termination.  depth bounds nesting.
func (d *dagGen) extend(cur string, depth int) {
	switch roll := d.r.Intn(10); {
	case roll < 3 && depth < 3: // cut: explicit segment boundary
		next := d.name("c")
		// Unhinted: the following unit's hint binds the new segment.
		d.g.Add(core.Comp(pipes.NewCountingProbe(next)))
		d.g.Cut(cur, next)
		d.structN++
		tail := d.unit(next)
		d.extend(tail, depth+1)
	case roll < 6 && depth < 3: // route split >> branches >> merge
		n := 2 + d.r.Intn(2)
		tee := pipes.NewRouteTee(d.name("tee"), n, 8, typespec.Block, typespec.Block,
			func(it *item.Item) int { return int((it.Seq - 1) % int64(n)) })
		d.g.Split(tee)
		d.g.Pipe(cur, tee.Name())
		d.splits = append(d.splits, tee.Name())
		d.structN++
		mrg := pipes.NewMergeTee(d.name("mrg"), n, 8, typespec.Block, typespec.Block)
		d.g.Merge(mrg)
		for i := 0; i < n; i++ {
			tail := d.unit(fmt.Sprintf("%s:%d", tee.Name(), i))
			d.g.Pipe(tail, fmt.Sprintf("%s:%d", mrg.Name(), i))
		}
		tail := d.unit(mrg.Name())
		d.extend(tail, depth+1)
	case roll < 8 && depth < 2: // copy fan-out: disjoint subtrees, own sinks
		n := 2
		tee := pipes.NewCopyTee(d.name("cpy"), n, 8, typespec.Block, typespec.Block)
		d.g.Split(tee)
		d.g.Pipe(cur, tee.Name())
		d.splits = append(d.splits, tee.Name())
		d.structN++
		for i := 0; i < n; i++ {
			// A branch whose subtree is exactly one unit ending in one sink
			// (no nested cut/tee) is a pure sink branch — the only shape
			// DetachBranch accepts.
			sinksBefore, structBefore := len(d.sinks), d.structN
			tail := d.unit(fmt.Sprintf("%s:%d", tee.Name(), i))
			d.extend(tail, depth+1)
			if len(d.sinks) == sinksBefore+1 && d.structN == structBefore {
				d.detachable = append(d.detachable,
					branchPort{split: tee.Name(), port: i, sink: d.sinks[sinksBefore].Name()})
			}
		}
	default:
		d.terminate(cur)
	}
}

// build assembles the whole graph: clocked source segment, then random
// structure.
func (d *dagGen) build() {
	src := d.name("src")
	d.g.Add(core.Comp(pipes.NewCounterSource(src, d.items)))
	pump := d.name("p")
	rate := 200 + float64(d.r.Intn(800))
	d.period = time.Duration(float64(time.Second) / rate)
	d.g.Add(core.Pmp(pipes.NewClockedPump(pump, rate)), d.hintOpt()...)
	d.g.Pipe(src, pump)
	tail := pump
	if d.r.Intn(2) == 0 {
		tail = d.filter(nil)
		d.g.Pipe(pump, tail)
	}
	d.extend(tail, 0)
}

// trace renders the per-sink item streams (sink declaration order).
func (d *dagGen) trace() string {
	var b strings.Builder
	for _, s := range d.sinks {
		b.WriteString(s.Name())
		b.WriteByte('[')
		for _, it := range s.Items() {
			fmt.Fprintf(&b, "%d/%v;", it.Seq, it.Payload)
		}
		b.WriteString("] ")
	}
	return b.String()
}

// traces renders the same per-sink streams keyed by sink name, for the
// edit harness's sink-by-sink comparison (a detached sink is only
// prefix-comparable, so the single concatenated trace cannot be used).
func (d *dagGen) traces() map[string]string {
	m := make(map[string]string, len(d.sinks))
	for _, s := range d.sinks {
		var b strings.Builder
		for _, it := range s.Items() {
			fmt.Fprintf(&b, "%d/%v;", it.Seq, it.Payload)
		}
		m[s.Name()] = b.String()
	}
	return m
}

// midStream is the virtual instant at which the clocked source, which ticks
// from Epoch, is about to emit the item a quarter of the way through.
func (d *dagGen) midStream() time.Time {
	return vclock.Epoch.Add(time.Duration(d.items/4) * d.period)
}

func (d *dagGen) total() int {
	n := 0
	for _, s := range d.sinks {
		n += s.Count()
	}
	return n
}

// divergence reports where two traces part: the first sink whose streams
// differ, the position of the first differing item in it, and eight items
// either side of that position from both.  It reads the whole-deployment
// form of trace() ("sink[items] sink[items] ") and the bare per-sink item
// lists of traces().  Where a divergence STARTS is the evidence — a flow
// that stalls at position 1 is a start-up race, one that swaps two
// neighbours mid-stream is a merge race — and a truncated dump of both
// strings shows it only for the first sink.
func divergence(got, want string) string {
	gs, ws := strings.SplitAfter(got, "] "), strings.SplitAfter(want, "] ")
	for i := 0; i < len(gs) || i < len(ws); i++ {
		var g, w string
		if i < len(gs) {
			g = gs[i]
		}
		if i < len(ws) {
			w = ws[i]
		}
		if g == w {
			continue
		}
		sink := "(the one compared)"
		if k := strings.IndexByte(w, '['); k >= 0 {
			sink = w[:k]
		} else if k := strings.IndexByte(g, '['); k >= 0 {
			sink = g[:k]
		}
		items := func(s string) []string {
			s = strings.TrimSuffix(s[strings.IndexByte(s, '[')+1:], "] ")
			return strings.Split(strings.TrimSuffix(s, ";"), ";")
		}
		gi, wi := items(g), items(w)
		pos := 0
		for pos < len(gi) && pos < len(wi) && gi[pos] == wi[pos] {
			pos++
		}
		lo := max(0, pos-8)
		around := func(xs []string) string {
			if lo >= len(xs) {
				return fmt.Sprintf("(ends after %d items)", len(xs))
			}
			return strings.Join(xs[lo:min(len(xs), pos+9)], " ")
		}
		return fmt.Sprintf("first divergence: sink %s, item %d of %d (want %d); items %d.. as seq/payload\n got: %s\nwant: %s",
			sink, pos, len(gi), len(wi), lo, around(gi), around(wi))
	}
	return "no divergence"
}

// runOnScheduler deploys and drains the generated graph on one scheduler.
func runOnScheduler(t *testing.T, seed int64) (string, int) {
	t.Helper()
	gen := newDagGen(seed, 1)
	gen.build()
	sched := uthread.New()
	d, err := gen.g.Deploy(graph.OnScheduler(sched))
	if err != nil {
		t.Fatalf("seed %d: scheduler deploy: %v", seed, err)
	}
	d.Start()
	if err := sched.Run(); err != nil {
		t.Fatalf("seed %d: scheduler run: %v", seed, err)
	}
	if err := d.Wait(); err != nil {
		t.Fatalf("seed %d: scheduler wait: %v", seed, err)
	}
	return gen.trace(), gen.total()
}

// startWith books act, a controller action, for the instant the stream is a
// quarter through, and starts the group and the flow.  Both start under one
// hold: a group that idles with no deadline between the two would run the
// appointment then.  The returned channel yields act's result once it ran.
func startWith(grp *shard.Group, d *graph.Deployment, gen *dagGen, act func() error) <-chan error {
	res := make(chan error, 1)
	grp.At(gen.midStream(), func() { res <- act() })
	grp.External(func() {
		grp.Start()
		d.Start()
	})
	return res
}

// acted collects the result of the action startWith booked, after the flow
// has drained: time cannot pass the appointment without running it.
func acted(t *testing.T, seed int64, what string, res <-chan error) {
	t.Helper()
	select {
	case err := <-res:
		if err != nil {
			t.Fatalf("seed %d: %s: %v", seed, what, err)
		}
	default:
		t.Fatalf("seed %d: the flow drained and the %s never ran", seed, what)
	}
}

// runOnGroup deploys and drains the generated graph on an n-shard group.
// With rebalance set it moves a random subset of segments to random shards
// at the virtual instant gen.midStream(); it reports whether the rebalance
// interrupted a live stream — the sinks held some of the total items, not all.
func runOnGroup(t *testing.T, seed int64, shards int, rebalance bool, total int) (string, bool) {
	t.Helper()
	gen := newDagGen(seed, shards)
	gen.build()
	grp := shard.NewGroup(shard.WithShardCount(shards))
	d, err := gen.g.Deploy(graph.OnGroup(grp))
	if err != nil {
		t.Fatalf("seed %d: %d-shard deploy: %v", seed, shards, err)
	}
	migrated := false
	var res <-chan error
	if !rebalance {
		grp.Start()
		d.Start()
	} else {
		res = startWith(grp, d, gen, func() error {
			// Hints come from a side PRNG so the topology draws stay untouched.
			hr := rand.New(rand.NewSource(seed ^ 0x5eed))
			hints := make(map[string]int)
			for _, name := range slices.Sorted(maps.Keys(d.SegmentPlacements())) {
				if hr.Intn(2) == 0 {
					hints[name] = hr.Intn(shards)
				}
			}
			before := gen.total()
			migrated = 0 < before && before < total
			return d.Rebalance(hints)
		})
	}
	if err := d.Wait(); err != nil {
		t.Fatalf("seed %d: %d-shard wait: %v", seed, shards, err)
	}
	if err := grp.Wait(); err != nil {
		t.Fatalf("seed %d: %d-shard group wait: %v", seed, shards, err)
	}
	if rebalance {
		acted(t, seed, "rebalance", res)
	}
	return gen.trace(), migrated
}

// runOnSchedulerTraces is runOnScheduler with per-sink trace keying, the
// baseline for the edit harness.
func runOnSchedulerTraces(t *testing.T, seed int64) (map[string]string, int) {
	t.Helper()
	gen := newDagGen(seed, 1)
	gen.build()
	sched := uthread.New()
	d, err := gen.g.Deploy(graph.OnScheduler(sched))
	if err != nil {
		t.Fatalf("seed %d: scheduler deploy: %v", seed, err)
	}
	d.Start()
	if err := sched.Run(); err != nil {
		t.Fatalf("seed %d: scheduler run: %v", seed, err)
	}
	if err := d.Wait(); err != nil {
		t.Fatalf("seed %d: scheduler wait: %v", seed, err)
	}
	return gen.traces(), gen.total()
}

// runOnGroupWithEdits deploys the generated graph on an n-shard group and
// fires one random identity-preserving Edit batch at the virtual instant
// gen.midStream(): either a DetachBranch of a random pure sink branch, or a
// batch of an identity InsertStage on a random plain edge, an
// equivalent-implementation SwapStage on a random filter, and (half the
// time) an AttachBranch subscriber on a random split.  The ops come from a
// side PRNG so the topology draws stay untouched.  Returns the per-sink
// traces, the name of the detached sink ("" if none), whether an edit was
// drawn (a graph may offer nothing to edit), and whether it landed while the
// stream was mid-flight — the sinks held some of baseTotal items, not all.
func runOnGroupWithEdits(t *testing.T, seed int64, shards, baseTotal int) (traces map[string]string, detached string, drawn, edited bool) {
	t.Helper()
	gen := newDagGen(seed, shards)
	gen.build()
	grp := shard.NewGroup(shard.WithShardCount(shards))
	d, err := gen.g.Deploy(graph.OnGroup(grp))
	if err != nil {
		t.Fatalf("seed %d: %d-shard deploy: %v", seed, shards, err)
	}
	hr := rand.New(rand.NewSource(seed ^ 0xed17))
	var ops []graph.EditOp
	if len(gen.detachable) > 0 && hr.Intn(3) == 0 {
		bp := gen.detachable[hr.Intn(len(gen.detachable))]
		detached = bp.sink
		ops = append(ops, graph.DetachBranch{Split: bp.split, Port: bp.port})
	} else {
		if len(gen.edges) > 0 {
			e := gen.edges[hr.Intn(len(gen.edges))]
			ops = append(ops, graph.InsertStage{From: e[0], To: e[1],
				Stage: core.Comp(pipes.NewFuncFilter("eins",
					func(_ *core.Ctx, it *item.Item) (*item.Item, error) { return it, nil }))})
		}
		if len(gen.filters) > 0 {
			fn := gen.filters[hr.Intn(len(gen.filters))]
			fid := gen.fids[fn]
			ops = append(ops, graph.SwapStage{Node: fn,
				Stage: core.Comp(pipes.NewFuncFilter(fn,
					func(_ *core.Ctx, it *item.Item) (*item.Item, error) {
						p, _ := it.Payload.(int64)
						it.Payload = p*31 + fid
						return it, nil
					}))})
		}
		if len(gen.splits) > 0 && hr.Intn(2) == 0 {
			sp := gen.splits[hr.Intn(len(gen.splits))]
			ops = append(ops, graph.AttachBranch{
				Split: sp,
				Stages: []core.Stage{
					core.Pmp(pipes.NewFreePump("eatt_p")),
					core.Comp(pipes.NewCollectSink("eatt_s")),
				},
				Place: hr.Intn(shards+1) - 1,
			})
		}
	}
	drawn = len(ops) > 0
	var res <-chan error
	if !drawn {
		grp.Start()
		d.Start()
	} else {
		res = startWith(grp, d, gen, func() error {
			before := gen.total()
			edited = 0 < before && before < baseTotal
			return d.Edit(ops...)
		})
	}
	if err := d.Wait(); err != nil {
		t.Fatalf("seed %d: %d-shard wait: %v", seed, shards, err)
	}
	if err := grp.Wait(); err != nil {
		t.Fatalf("seed %d: %d-shard group wait: %v", seed, shards, err)
	}
	if drawn {
		acted(t, seed, "edit", res)
	}
	return gen.traces(), detached, drawn, edited
}

// TestRandomGraphEditDeterminism is the fourth harness run: the same 50
// seeded DAGs, deployed on 1-, 2- and 4-shard groups with a random
// identity-preserving Edit batch fired mid-stream.  Every surviving sink's
// trace must stay byte-identical to the unedited scheduler baseline — an
// insert of an identity filter, a swap to an equivalent implementation, or
// a new subscriber branch must not perturb a single byte of the existing
// flow — and a detached sink must hold a contiguous prefix of its unedited
// trace (it drained cleanly at the quiesce point, losing nothing it had
// already been fed).
func TestRandomGraphEditDeterminism(t *testing.T) {
	const seeds = 50
	drawn, edits := 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		want, total := runOnSchedulerTraces(t, seed)
		if total == 0 {
			t.Fatalf("seed %d: no items reached any sink", seed)
		}
		for _, shards := range []int{1, 2, 4} {
			got, detachedSink, wasDrawn, edited := runOnGroupWithEdits(t, seed, shards, total)
			if wasDrawn {
				drawn++
			}
			if edited {
				edits++
			}
			for name, w := range want {
				g, ok := got[name]
				if !ok {
					t.Fatalf("seed %d: %d-shard edited run lost sink %s", seed, shards, name)
				}
				if name == detachedSink {
					if !strings.HasPrefix(w, g) {
						t.Fatalf("seed %d: %d-shard detached sink %s is not a prefix of the unedited trace\n%s",
							seed, shards, name, divergence(g, w))
					}
					continue
				}
				if g != w {
					t.Fatalf("seed %d: %d-shard sink %s diverged after a mid-stream edit\n%s",
						seed, shards, name, divergence(g, w))
				}
			}
		}
	}
	// The edit is an appointment at a virtual instant: none that was drawn
	// may miss the stream, and most graphs must offer something to edit.
	if edits != drawn || drawn < 2*seeds {
		t.Fatalf("%d of %d drawn edits landed mid-stream, on %d deployments — the harness is not exercising live edits", edits, drawn, 3*seeds)
	}
	t.Logf("%d/%d drawn edits landed mid-stream with byte-identical surviving traces (%d deployments)", edits, drawn, 3*seeds)
}

// TestRandomGraphDeterminism is the harness: 50 seeded random DAGs, each
// deployed on one scheduler and on 2- and 4-shard groups, must yield
// byte-identical traces; a rebalance fired mid-stream on a second 4-shard
// run must leave the trace byte-identical too.
func TestRandomGraphDeterminism(t *testing.T) {
	const seeds = 50
	migrations := 0
	for seed := int64(1); seed <= seeds; seed++ {
		want, total := runOnScheduler(t, seed)
		if total == 0 {
			t.Fatalf("seed %d: no items reached any sink", seed)
		}
		for _, shards := range []int{2, 4} {
			if got, _ := runOnGroup(t, seed, shards, false, total); got != want {
				t.Fatalf("seed %d: %d-shard trace diverged\n%s", seed, shards, divergence(got, want))
			}
		}
		got, migrated := runOnGroup(t, seed, 4, true, total)
		if got != want {
			t.Fatalf("seed %d: 4-shard trace with mid-stream rebalance diverged\n%s", seed, divergence(got, want))
		}
		if migrated {
			migrations++
		}
	}
	// The rebalance is an appointment at a virtual instant: none may miss
	// the stream.
	if migrations != seeds {
		t.Fatalf("only %d/%d seeds rebalanced mid-stream — the harness is not exercising migration", migrations, seeds)
	}
	t.Logf("%d/%d seeds rebalanced mid-stream with byte-identical traces", migrations, seeds)
}

// TestDescheduledControllerCannotMoveTime reproduces, on any number of
// cores, what a loaded multi-core host does to the harness once in a few
// hundred runs: the goroutine that starts or rebalances a group deployment
// loses the CPU in the middle of its action, with some pumps already told
// to start and others not yet.  Every scheduler is idle then and no wake is
// pending, so a group clock that counts only schedulers advances — the
// source ticks on while half the flow stands still, and the merges see a
// different arrival order.  The clock counts the controller too
// (shard.Group.External); with that hold removed this test fails at its
// first seed.
func TestDescheduledControllerCannotMoveTime(t *testing.T) {
	const seeds = 6
	want, totals := make([]string, seeds+1), make([]int, seeds+1)
	for seed := int64(1); seed <= seeds; seed++ {
		want[seed], totals[seed] = runOnScheduler(t, seed)
	}
	defer graph.DescheduleControllers()()
	for seed := int64(1); seed <= seeds; seed++ {
		if got, _ := runOnGroup(t, seed, 2, false, totals[seed]); got != want[seed] {
			t.Fatalf("seed %d: 2-shard trace diverged when Start was descheduled mid-broadcast\n%s",
				seed, divergence(got, want[seed]))
		}
		if got, _ := runOnGroup(t, seed, 4, true, totals[seed]); got != want[seed] {
			t.Fatalf("seed %d: 4-shard trace diverged when Rebalance was descheduled mid-transaction\n%s",
				seed, divergence(got, want[seed]))
		}
	}
}

// TestRandomGraphRepeatability guards the generator itself: the same seed
// must reproduce the same topology and trace on repeated scheduler runs.
func TestRandomGraphRepeatability(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		a, _ := runOnScheduler(t, seed)
		b, _ := runOnScheduler(t, seed)
		if a != b {
			t.Fatalf("seed %d not repeatable", seed)
		}
	}
}
