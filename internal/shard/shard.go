// Package shard implements the multi-core sharded runtime: a SchedulerGroup
// owns N uthread schedulers ("shards"), runs each on its own goroutine (the
// Go runtime spreads them across OS threads and cores), places whole
// pipelines onto shards, and joins their lifecycles.
//
// The paper's thread package is deliberately uniprocessor — one run token,
// one scheduler — which preserves thread transparency for the components but
// caps the middleware at a single core.  Sharding keeps that contract
// per-scheduler: every pipeline still lives entirely inside one uniprocessor
// scheduler, so components never see concurrency; only whole pipelines are
// distributed, the same separation of application logic from placement
// policy that distribution middleware argues for.  Cross-shard flow uses
// Link — an in-process, zero-copy netpipe (no marshalling), with the same
// SenderStages/ReceiverStages composition surface as the network links.
//
// Time: by default the shards share one coordinated virtual clock
// (vclock.GroupVirtual), so a multi-shard simulation is a deterministic
// distributed discrete-event simulation — global time only advances to the
// minimum pending deadline once every shard is idle.  WithRealClock selects
// the wall clock for throughput farms and interactive work.
package shard

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/events"
	"infopipes/internal/uthread"
	"infopipes/internal/vclock"
)

// Policy selects how Place assigns pipelines to shards.
type Policy int

const (
	// RoundRobin cycles through the shards in order.
	RoundRobin Policy = iota
	// LeastLoaded picks the shard currently hosting the fewest pipelines
	// (finished pipelines are deducted as they complete).
	LeastLoaded
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case LeastLoaded:
		return "least-loaded"
	default:
		return "unknown"
	}
}

// Option configures a Group.
type Option func(*config)

type config struct {
	shards int
	policy Policy
	real   bool
	pinned bool
}

// WithShardCount sets the number of shards (default runtime.NumCPU()).
func WithShardCount(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.shards = n
		}
	}
}

// WithPolicy selects the placement policy (default RoundRobin).
func WithPolicy(p Policy) Option {
	return func(c *config) { c.policy = p }
}

// WithRealClock runs every shard on the wall clock instead of the
// coordinated shared virtual clock.
func WithRealClock() Option {
	return func(c *config) { c.real = true }
}

// WithPinnedShards wires each shard's Run loop to its own OS thread
// (runtime.LockOSThread): the Go scheduler stops migrating shard goroutines
// between threads, so the kernel can keep each shard's working set warm on
// one core — the first step of NUMA/CPU placement for large hosts.  The
// uthreads inside a shard are unaffected (they already live on the shard's
// single goroutine); this pins that goroutine itself.
func WithPinnedShards() Option {
	return func(c *config) { c.pinned = true }
}

// Group is the sharded runtime: N schedulers with a shared time base, a
// placement policy, and a joined lifecycle.  Construct with NewGroup, place
// pipelines with Compose (or Place + core.Compose), then Run.
type Group struct {
	shards []*uthread.Scheduler
	group  *vclock.GroupVirtual // nil on the real clock
	policy Policy
	pinned bool

	mu      sync.Mutex
	load    []int // pipelines currently placed per shard
	next    int   // round-robin cursor
	started bool
	err     error
	done    chan struct{} // closed once every shard's Run has returned
}

// NewGroup creates a sharded runtime.  By default it owns runtime.NumCPU()
// shards coordinated on one shared virtual clock.
func NewGroup(opts ...Option) *Group {
	cfg := config{shards: runtime.NumCPU(), policy: RoundRobin}
	for _, opt := range opts {
		opt(&cfg)
	}
	g := &Group{policy: cfg.policy, pinned: cfg.pinned, load: make([]int, cfg.shards), done: make(chan struct{})}
	if !cfg.real {
		g.group = vclock.NewGroupVirtual()
	}
	for i := 0; i < cfg.shards; i++ {
		var clk vclock.Clock
		if g.group != nil {
			clk = g.group.Member()
		} else {
			clk = vclock.Real{}
		}
		g.shards = append(g.shards, uthread.New(uthread.WithClock(clk)))
	}
	return g
}

// Shards reports the number of shards.
func (g *Group) Shards() int { return len(g.shards) }

// Scheduler returns shard i's scheduler, for explicit placement and for
// wiring cross-shard links.
func (g *Group) Scheduler(i int) *uthread.Scheduler { return g.shards[i] }

// Clock returns the coordinated shared virtual clock, or nil when the group
// runs on the real clock.
func (g *Group) Clock() *vclock.GroupVirtual { return g.group }

// External runs fn as one action of an external actor: a goroutine that is
// not one of the shards and starts, stops or reconfigures what runs on them.
// It is the one door for that.  The coordinated clock stands still from
// fn's first post to its last (vclock.GroupVirtual.Hold), so a controller
// the host deschedules half-way through a broadcast cannot let one half of
// a flow run ahead of the other.  fn must not wait for virtual time to
// pass.  On the real clock there is nothing to hold and fn just runs.
func (g *Group) External(fn func()) {
	if g.group != nil {
		g.group.Hold()
		defer g.group.Release()
	}
	fn()
}

// At books fn, one action of an external actor, for the virtual instant t
// (vclock.GroupVirtual.At): it runs under the hold when nothing before t is
// left to happen on any shard, ahead of whatever is due at t.  Where External
// says "not while I act", At also says when.  Book before Start, or Start the
// group and the flow inside one External: an idle group with no deadline runs
// a future appointment at once.  The real clock keeps no appointments, so a
// group made WithRealClock panics.
func (g *Group) At(t time.Time, fn func()) {
	if g.group == nil {
		panic("shard: Group.At needs the coordinated virtual clock")
	}
	g.group.At(t, fn)
}

// Place picks a shard for the next pipeline according to the placement
// policy and returns its index.  The load accounting assumes the caller
// composes one pipeline on the returned shard; prefer Compose, which does
// both in one step.
func (g *Group) Place() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.placeLocked()
}

// PlaceAt records the explicit placement of one pipeline on shard i — load
// accounting for callers (the graph deployer) that pick the shard
// themselves, from hints rather than the policy.  Pair with Release when
// the pipeline finishes.
func (g *Group) PlaceAt(i int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.load[i]++
}

// Release undoes one Place/PlaceAt accounting entry for shard i.
func (g *Group) Release(i int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.load[i]--
}

func (g *Group) placeLocked() int {
	idx := 0
	switch g.policy {
	case LeastLoaded:
		for i := 1; i < len(g.load); i++ {
			if g.load[i] < g.load[idx] {
				idx = i
			}
		}
	default: // RoundRobin
		idx = g.next % len(g.shards)
		g.next++
	}
	g.load[idx]++
	return idx
}

// Compose places a whole pipeline onto one shard (chosen by the placement
// policy) and composes it there.  The pipeline's components run exactly as
// on a single-scheduler runtime — thread transparency is per shard.  bus may
// be nil for a pipeline-private event service.  The shard's load count is
// released when the pipeline finishes.
func (g *Group) Compose(name string, bus *events.Bus, stages []core.Stage, opts ...core.ComposeOption) (*core.Pipeline, error) {
	g.mu.Lock()
	idx := g.placeLocked()
	g.mu.Unlock()
	p, err := core.Compose(name, g.shards[idx], bus, stages, opts...)
	if err != nil {
		g.mu.Lock()
		g.load[idx]--
		g.mu.Unlock()
		return nil, fmt.Errorf("shard %d: %w", idx, err)
	}
	go func() {
		<-p.Done()
		g.mu.Lock()
		g.load[idx]--
		g.mu.Unlock()
	}()
	return p, nil
}

// Loads reports the number of live pipelines per shard (diagnostics and
// placement tests).
func (g *Group) Loads() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]int, len(g.load))
	copy(out, g.load)
	return out
}

// Start launches every shard's scheduler on its own goroutine, plus one
// collector that joins them, records the first failure, and stops the rest
// of the group on failure (a farm with a dead shard is broken, not
// degraded).  Idempotent.  Place pipelines before starting, exactly as with
// a single scheduler.
func (g *Group) Start() {
	g.mu.Lock()
	if g.started {
		g.mu.Unlock()
		return
	}
	g.started = true
	errcs := make([]<-chan error, 0, len(g.shards))
	for _, s := range g.shards {
		errc := make(chan error, 1)
		go func(s *uthread.Scheduler) {
			if g.pinned {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
			}
			errc <- s.Run()
		}(s)
		errcs = append(errcs, errc)
	}
	g.mu.Unlock()
	go g.collect(errcs)
}

// Pinned reports whether shard Run loops are locked to OS threads.
func (g *Group) Pinned() bool { return g.pinned }

// collect joins every shard exactly once and latches the result, so Wait
// may be called any number of times, from any number of goroutines.
func (g *Group) collect(errcs []<-chan error) {
	var wg sync.WaitGroup
	var once sync.Once
	var first error
	for _, ch := range errcs {
		wg.Add(1)
		go func(ch <-chan error) {
			defer wg.Done()
			if err := <-ch; err != nil {
				once.Do(func() {
					first = err
					g.Stop()
				})
			}
		}(ch)
	}
	wg.Wait()
	g.mu.Lock()
	if g.err == nil {
		g.err = first
	}
	g.mu.Unlock()
	close(g.done)
}

// Wait blocks until every shard's Run has returned and reports the first
// failure.  It starts the group if Start has not run yet, and may be called
// repeatedly — the result is latched.
func (g *Group) Wait() error {
	g.Start()
	<-g.done
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// Pin holds every shard up — an idle shard's Run does not return — until
// unpin is called.  It pins nothing and reports false if a shard's Run has
// already returned: nothing placed there would ever run.
func (g *Group) Pin() (unpin func(), ok bool) {
	for i, s := range g.shards {
		if !s.AddExternalSource() {
			g.release(g.shards[:i])
			return nil, false
		}
	}
	return func() { g.release(g.shards) }, true
}

func (g *Group) release(shards []*uthread.Scheduler) {
	for _, s := range shards {
		s.ReleaseExternalSource()
	}
}

// Run starts every shard and waits for all of them: the multi-shard
// equivalent of Scheduler.Run.
func (g *Group) Run() error {
	g.Start()
	return g.Wait()
}

// Stop shuts every shard down.  Safe from any goroutine, idempotent.
func (g *Group) Stop() {
	for _, s := range g.shards {
		s.Stop()
	}
}

// Err reports the first failure recorded by any shard, or nil.
func (g *Group) Err() error {
	g.mu.Lock()
	if g.err != nil {
		err := g.err
		g.mu.Unlock()
		return err
	}
	g.mu.Unlock()
	for _, s := range g.shards {
		if err := s.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Stats returns the group's activity counters summed across shards.
func (g *Group) Stats() uthread.Stats {
	var agg uthread.Stats
	for _, s := range g.shards {
		st := s.Stats()
		agg.Switches += st.Switches
		agg.Grants += st.Grants
		agg.Messages += st.Messages
		agg.Timers += st.Timers
	}
	return agg
}

// ShardStats returns per-shard activity counters (diagnostics).
func (g *Group) ShardStats() []uthread.Stats {
	out := make([]uthread.Stats, len(g.shards))
	for i, s := range g.shards {
		out[i] = s.Stats()
	}
	return out
}
