package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"infopipes/internal/uthread"
)

// trial is one independent run of a workload: fresh schedulers, links,
// nodes and sockets, one regime, one oracle.
type trial struct {
	w     *workload
	gen   *generator
	seed  int64
	items int64
	rate  float64 // > 0: open loop at this many items/s; 0: free-running

	base    time.Time // first constructor call; every stamp is relative to it
	started time.Time // just before Start()
	or      *oracle   // the sink
	stamps  *stampRec // nil unless traced
	setup   []span    // the wrapped set-up calls
}

func (t *trial) regime() string {
	if t.rate > 0 {
		return "paced"
	}
	return "saturated"
}

// step runs one set-up call into a layer and records it as a span.
func (t *trial) step(name string, fn func() error) error {
	start := time.Since(t.base)
	err := fn()
	t.setup = append(t.setup, span{Name: name, Parent: "setup", Start: int64(start), End: int64(time.Since(t.base))})
	if err != nil {
		return fmt.Errorf("%s: %s: %w", t.w.name, name, err)
	}
	return nil
}

// due is when item seq was due to leave the source, in ns since base: the
// clocked pump's catch-up schedule anchored at the creation of item 1, so a
// stall is charged to every item it delays.
func (t *trial) due(seq int64) int64 {
	return t.or.created[0] + int64(float64(seq-1)*float64(time.Second)/t.rate)
}

// trialResult is what one trial measured.
type trialResult struct {
	offered, failed int64
	watchdog        bool
	wall            time.Duration // Start() to end of stream at the sink
	setup           time.Duration // first constructor call to just before Start()

	// Paced trials: sorted samples, warm-up dropped.
	latency, transit, lateness []int64
	hops                       map[string][]int64 // traced trials only

	// Public counters of the layers, read after the stream ended.
	sched                 uthread.Stats
	busyMaxNs             int64
	linkDrains, linkWakes int64
	linkHighWater         int
	replays, dups         int64
	mallocs, allocBytes   uint64
}

func (r *trialResult) itemsPerSec() float64 {
	if r.wall <= 0 {
		return 0
	}
	return float64(r.offered-r.failed) / r.wall.Seconds()
}

// counterMap names the counters of one trial, per item where that applies.
func (r *trialResult) counterMap() map[string]float64 {
	items, wall := float64(max(r.offered, 1)), float64(max(r.wall, 1))
	return map[string]float64{
		"uthread.switches_per_item":  float64(r.sched.Switches) / items,
		"uthread.messages_per_item":  float64(r.sched.Messages) / items,
		"uthread.timers_per_item":    float64(r.sched.Timers) / items,
		"core.busy_share":            min(float64(r.busyMaxNs)/wall, 1), // BusyNanos is sampled, so it can overshoot
		"shard.link_wakes_per_item":  float64(r.linkWakes) / items,
		"shard.link_drains_per_item": float64(r.linkDrains) / items,
		"shard.link_highwater":       float64(r.linkHighWater),
		"netpipe.replays":            float64(r.replays),
		"netpipe.dups":               float64(r.dups),
		"runtime.allocs_per_item":    float64(r.mallocs) / items,
		"runtime.bytes_per_item":     float64(r.allocBytes) / items,
	}
}

// warmupShare of each paced trial's items is dropped before percentiles.
const warmupShare = 0.05

func (t *trial) warmupItems() int64 { return int64(float64(t.items) * warmupShare) }

// newTrial allocates one trial of w: items items, free-running when rate
// is 0 and paced at rate items/s otherwise.
func newTrial(w *workload, gen *generator, seed, items int64, rate float64, traced bool) *trial {
	t := &trial{w: w, gen: gen, seed: seed, items: items, rate: rate, or: newOracle("sink", items)}
	if traced {
		t.stamps = newStampRec(w.hops, items)
	}
	return t
}

// runTrial builds, starts, watches and tears down one trial.  The watchdog
// fires after deadline; outDir then receives a goroutine dump.
func runTrial(t *trial, deadline time.Duration, outDir string) (*trialResult, error) {
	w, items := t.w, t.items
	if w.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))
	}
	runtime.GC()
	// The oracle's and the stamps' arrays are the benchmark's own; set-up
	// time starts after them, at the first constructor call into the runtime.
	t.base = time.Now()
	t.or.base = t.base
	if t.stamps != nil {
		t.stamps.base = t.base
	}
	f, err := w.build(t)
	if err != nil {
		return nil, err
	}
	// The MemStats read stops the world; it is charged to neither set-up
	// nor the stream.
	setup := time.Since(t.base)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t.started = time.Now()
	f.start()

	// The flow ends by itself; the watchdog is for the known lost wake.
	waited := make(chan error, 1)
	go func() { waited <- f.wait() }()
	res := &trialResult{offered: items, setup: setup}
	watchdog := time.NewTimer(deadline)
	defer watchdog.Stop()
	var waitErr error
	select {
	case waitErr = <-waited:
	case <-watchdog.C:
		res.watchdog = true
		dumpGoroutines(outDir, w.name)
	}
	runtime.ReadMemStats(&m1)
	res.collect(f, &m0, &m1)
	f.stop()
	if res.watchdog {
		// stop makes the blocked wait return; give it a moment, then go on
		// whatever happens — the benchmark must never hang.
		select {
		case <-waited:
		case <-time.After(5 * time.Second):
		}
		res.failed = res.offered - t.or.good
		res.wall = time.Since(t.started)
		return res, nil
	}
	if waitErr != nil {
		return nil, fmt.Errorf("%s: %w", w.name, waitErr)
	}
	// The stream ends when the sink has seen end-of-stream.
	end := time.Now()
	select {
	case <-t.or.eos:
		end = t.or.eosAt
	default:
	}
	res.wall = end.Sub(t.started)
	res.failed = t.or.failed()
	if t.rate > 0 {
		res.samples(t)
	}
	return res, nil
}

func (r *trialResult) collect(f *flow, m0, m1 *runtime.MemStats) {
	for _, s := range f.scheds {
		st := s.Stats()
		r.sched.Switches += st.Switches
		r.sched.Grants += st.Grants
		r.sched.Messages += st.Messages
		r.sched.Timers += st.Timers
	}
	for _, p := range f.pipes {
		r.busyMaxNs = max(r.busyMaxNs, p.Stats().BusyNanos)
	}
	for _, l := range f.links {
		r.linkDrains += l.Drains()
		r.linkWakes += l.Wakes()
		r.linkHighWater = max(r.linkHighWater, l.HighWater())
	}
	for _, l := range f.lanes {
		st := l.LaneStats()
		r.replays += st.Replays
		r.dups += st.Dups
	}
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
}

// samples turns the oracle's arrays into sorted latency (arrival - due),
// transit (arrival - created) and lateness (created - due) samples, and the
// stamps into per-hop samples.
func (r *trialResult) samples(t *trial) {
	or := t.or
	if or.seen[0] == 0 {
		return
	}
	skip := t.warmupItems()
	for seq := skip + 1; seq <= or.offered; seq++ {
		if or.seen[seq-1] == 0 {
			continue
		}
		due := t.due(seq)
		r.latency = append(r.latency, or.arrived[seq-1]-due)
		r.transit = append(r.transit, or.arrived[seq-1]-or.created[seq-1])
		r.lateness = append(r.lateness, or.created[seq-1]-due)
	}
	slices.Sort(r.latency)
	slices.Sort(r.transit)
	slices.Sort(r.lateness)
	if t.stamps != nil {
		r.hops = hopSamples(t.w.hops, t.stamps, or, skip)
		for _, s := range r.hops {
			slices.Sort(s)
		}
	}
}

// dumpGoroutines writes every goroutine's stack to the output directory.
func dumpGoroutines(dir, workload string) {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: watchdog: %v\n", err)
		return
	}
	name := filepath.Join(dir, fmt.Sprintf("watchdog-%s-%d.txt", workload, time.Now().UnixNano()))
	if err := os.WriteFile(name, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: watchdog: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "bench: watchdog fired on %s; goroutine stacks in %s\n", workload, name)
}

// trialDeadline is the watchdog's allowance for one trial: ten times its
// expected wall time, at most a minute.
func trialDeadline(items int64, rate float64) time.Duration {
	expect := 2 * time.Second
	if rate > 0 {
		expect = time.Duration(float64(items) / rate * float64(time.Second))
	}
	d := 10 * expect
	if d > time.Minute {
		d = time.Minute
	}
	if d < 5*time.Second {
		d = 5 * time.Second
	}
	return d
}
