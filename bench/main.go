// Command bench is the repository's one benchmark: five workloads that
// follow an item's journey through the runtime, measured end to end with
// tracing off and layer by layer in a separate traced run.  BENCHMARK.json
// at the root of the repository names the workloads, the metrics, their
// units and the bound by which each end-to-end metric may get worse.
//
//	bash bench/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--selfcheck]
//
// One run measures one workload (all five when --workload is not given) for
// about S seconds and prints, as the last line of standard output, one JSON
// object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
// the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet keeps metrics in the order they were set, for printing, and
// for an end-to-end metric the per-trial values it was taken over.
type metricSet struct {
	names  []string
	vals   map[string]metric
	notes  map[string]string
	trials map[string][]float64
}

func newMetricSet() *metricSet {
	return &metricSet{vals: map[string]metric{}, notes: map[string]string{}, trials: map[string][]float64{}}
}

func (m *metricSet) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0 // a trial the watchdog killed measured nothing; JSON has no NaN
	}
	if _, ok := m.vals[name]; !ok {
		m.names = append(m.names, name)
	}
	m.vals[name] = metric{Value: v, Unit: unit}
}

// note attaches a remark (a sample or trial count) to a metric's line.
func (m *metricSet) note(name, format string, args ...any) {
	m.notes[name] = fmt.Sprintf(format, args...)
}

func (m *metricSet) print(w *os.File) {
	for _, name := range m.names {
		v := m.vals[name]
		line := fmt.Sprintf("  %-40s %16.6f %s", name, v.Value, v.Unit)
		if n := m.notes[name]; n != "" {
			line += "   (" + n + ")"
		}
		fmt.Fprintln(w, line)
	}
}

// result is the last line of a run, in the shape the driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what the flags select.
type config struct {
	seed    int64
	seconds float64
	traced  bool
	outDir  string
	// scale shrinks every item count; 1 when measuring, 0.01 in the smoke
	// test.  minTrials is the least number of counted rounds of a run and
	// of repetitions of a rung.
	scale     float64
	minTrials int
}

// run is one trial of w under this configuration.
func (c config) run(w *workload, gen *generator, full int64, rate float64, traced bool) (*trialResult, *trial, error) {
	t := newTrial(w, gen, c.seed, c.items(full), rate, traced)
	r, err := runTrial(t, trialDeadline(t.items, rate), c.outDir)
	return r, t, err
}

func (c config) items(full int64) int64 {
	n := int64(float64(full) * c.scale)
	if n < 2*sampleEvery {
		n = 2 * sampleEvery
	}
	return n
}

// A run is a fixed number of rounds per second of --seconds, each of
// satPerRound saturated trials and then one paced trial.  The number comes
// from the flags and not from the time the trials take: the best of fewer
// trials reads lower by itself, so a slower commit must get as many draws as
// a faster one.  On the reference host the rounds of a run fill --seconds.
//
// The regimes alternate because a process that only paces sits, for seconds
// on end, in one of two modes on the flows that cross a socket (latency p50
// near 500 or near 630 us on the reference host: the idle cores wake slowly
// or fast, and which one is luck).  A paced trial that follows saturated ones
// finds the cores in the fast mode.
//
// The first rounds of a process run 15-40 % slow (page faults, heap growth,
// cold sockets); they are run, checked and tallied like the others, but
// their timings are dropped.
const (
	roundsPerSecond = 0.8
	warmupRounds    = 2 // of a run of 20 s or more; fewer in a shorter one
	satPerRound     = 2
)

// rounds runs the trials of an end-to-end run and returns the counted ones.
func (c config) rounds(res *result, w *workload, gen *generator) (sat, paced []*trialResult, err error) {
	warmup := int(warmupRounds * min(c.seconds/20, 1))
	counted := max(c.minTrials, int(roundsPerSecond*c.seconds))
	for i := 0; i < warmup+counted; i++ {
		for j := 0; j <= satPerRound; j++ {
			items, rate := w.satItems, 0.0
			if j == satPerRound {
				items, rate = w.pacedItems, w.pacedRate
			}
			r, _, err := c.run(w, gen, items, rate, false)
			if err != nil {
				return nil, nil, err
			}
			res.Attempted += r.offered
			res.Failed += r.failed
			switch {
			case i < warmup:
			case rate > 0:
				paced = append(paced, r)
			default:
				sat = append(sat, r)
			}
		}
	}
	return sat, paced, nil
}

func valuesOf(rs []*trialResult, f func(*trialResult) float64) []float64 {
	vals := make([]float64, len(rs))
	for i, r := range rs {
		vals[i] = f(r)
	}
	return vals
}

func medianOf(rs []*trialResult, f func(*trialResult) float64) float64 {
	return median(valuesOf(rs, f))
}

func pct(samples func(*trialResult) []int64, q float64) func(*trialResult) float64 {
	return func(r *trialResult) float64 { return us(percentile(samples(r), q)) }
}

func latencyOf(r *trialResult) []int64  { return r.latency }
func transitOf(r *trialResult) []int64  { return r.transit }
func latenessOf(r *trialResult) []int64 { return r.lateness }

// measureEndToEnd is a --trace 0 run: paced trials for latency, saturated
// trials for throughput.
func measureEndToEnd(w *workload, gen *generator, c config) (*result, *metricSet, error) {
	res := &result{}
	sat, paced, err := c.rounds(res, w, gen)
	if err != nil {
		return nil, nil, err
	}

	ms := newMetricSet()
	// Throughput is the best trial, not the median: whatever else runs on
	// the host only ever slows a trial down, so the fastest of the run is the
	// one that was left alone.  On a busy host it repeats several times
	// better than the median (see README.md).
	rates := valuesOf(sat, (*trialResult).itemsPerSec)
	ips := slices.Max(rates)
	ms.set("items_per_s", ips, "items/s")
	ms.trials["items_per_s"] = rates
	ms.note("items_per_s", "best of %d saturated trials of %d items; median %.0f", len(sat), sat[0].offered, median(rates))
	ms.set("mb_per_s", ips*float64(w.payloadBytes)/1e6, "MB/s")
	for _, m := range []struct {
		name string
		q    float64
	}{{"latency_p50_us", 0.50}, {"latency_p95_us", 0.95}} {
		ms.trials[m.name] = valuesOf(paced, pct(latencyOf, m.q))
		ms.set(m.name, median(ms.trials[m.name]), "us")
		ms.note(m.name, "median of %d paced trials at %.0f items/s, %d samples each", len(paced), w.pacedRate, len(paced[0].latency))
	}
	all := append(append([]*trialResult(nil), sat...), paced...)
	ms.trials["setup_s"] = valuesOf(all, func(r *trialResult) float64 { return r.setup.Seconds() })
	ms.set("setup_s", median(ms.trials["setup_s"]), "s")
	ms.note("setup_s", "median of %d set-ups", len(all))

	res.Metrics = ms.vals
	res.Correct = res.Failed == 0
	return res, ms, nil
}

// measureLayers is a --trace 1 run: every rung, then pairs of untraced and
// traced trials of the workload in both regimes.  Counters are read over
// the traced trials, hops come from their stamps, and the difference
// between the pairs is the tracing overhead.  No end-to-end metric is ever
// taken from here.
func measureLayers(w *workload, gen *generator, c config) (*result, *metricSet, error) {
	// The rung loops are sized for 8 of a 20-second run; the rest of the
	// time goes to the workload's own trials.
	began := time.Now()
	rg := &rungs{gen: gen, scale: c.scale * c.seconds / 20, reps: c.minTrials, out: newMetricSet()}
	if err := rg.run(); err != nil {
		return nil, nil, err
	}
	ms := rg.out

	res := &result{}
	count := func(r *trialResult) {
		res.Attempted += r.offered
		res.Failed += r.failed
	}
	var sat, satTraced, paced []*trialResult
	var last *trial
	budget := time.Duration(c.seconds * float64(time.Second))
	var round time.Duration
	for len(paced) < c.minTrials || time.Since(began)+round <= budget {
		roundStart := time.Now()
		for _, traced := range []bool{false, true} {
			r, _, err := c.run(w, gen, w.satItems, 0, traced)
			if err != nil {
				return nil, nil, err
			}
			count(r)
			if traced {
				satTraced = append(satTraced, r)
			} else {
				sat = append(sat, r)
			}
		}
		r, t, err := c.run(w, gen, w.pacedItems, w.pacedRate, true)
		if err != nil {
			return nil, nil, err
		}
		count(r)
		paced, last = append(paced, r), t
		round = time.Since(roundStart)
	}
	if err := writeTrace(c.outDir, buildTrace(last, paced[len(paced)-1])); err != nil {
		return nil, nil, err
	}

	// Counters: the median over the traced trials of each regime.
	counter := func(rs []*trialResult, name string) float64 {
		return medianOf(rs, func(r *trialResult) float64 { return r.counterMap()[name] })
	}
	for _, name := range []string{
		"uthread.switches_per_item", "uthread.messages_per_item", "uthread.timers_per_item",
		"shard.link_wakes_per_item", "shard.link_drains_per_item", "shard.link_highwater",
	} {
		ms.set(name+".sat", counter(satTraced, name), "count")
		ms.set(name+".paced", counter(paced, name), "count")
	}
	ms.set("core.busy_share", counter(satTraced, "core.busy_share"), "ratio")
	ms.set("runtime.allocs_per_item", counter(satTraced, "runtime.allocs_per_item"), "count")
	ms.set("runtime.bytes_per_item", counter(satTraced, "runtime.bytes_per_item"), "bytes")
	var replays, dups float64
	for _, rs := range [][]*trialResult{satTraced, paced} {
		for _, r := range rs {
			replays += float64(r.replays)
			dups += float64(r.dups)
		}
	}
	ms.set("netpipe.replays", replays, "count")
	ms.set("netpipe.dups", dups, "count")

	ms.set("pipes.pump_lateness_p50_us", medianOf(paced, pct(latenessOf, 0.50)), "us")
	ms.set("pipes.pump_lateness_p99_us", medianOf(paced, pct(latenessOf, 0.99)), "us")
	// Transit is source to sink with the pump's lateness left out.  Hops
	// the workload does not cross read 0; the hop p50s and the residual sum
	// to the transit p50.
	transitP50 := medianOf(paced, pct(transitOf, 0.50))
	ms.set("transit_p50_us", transitP50, "us")
	ms.set("transit_p99_us", medianOf(paced, pct(transitOf, 0.99)), "us")
	residual := transitP50
	hopPct := func(hop string, q float64) float64 {
		return medianOf(paced, func(r *trialResult) float64 { return us(percentile(r.hops[hop], q)) })
	}
	for _, hop := range []string{"core.head", "pipes.tee_hop", "pipes.merge_hop", "shard.link_hop", "netpipe.lane_hop", "core.tail"} {
		ms.set(hop+"_p50_us", hopPct(hop, 0.50), "us")
	}
	ms.set("shard.link_hop_p99_us", hopPct("shard.link_hop", 0.99), "us")
	ms.set("netpipe.lane_hop_p99_us", hopPct("netpipe.lane_hop", 0.99), "us")
	for _, hop := range w.hops {
		residual -= hopPct(hop, 0.50)
	}
	ms.set("residual.transit_us", residual, "us")
	ms.note("residual.transit_us", "transit p50 minus the p50 of every hop")
	// The tail beyond p95 does not repeat on a shared 2-core host (the mass
	// of GC- and host-delayed items straddles 1 %), so it is a diagnostic
	// here and not an end-to-end metric.
	ms.set("tail.latency_p99_us", medianOf(paced, pct(latencyOf, 0.99)), "us")
	ms.set("tail.latency_p999_us", medianOf(paced, pct(latencyOf, 0.999)), "us")

	// The serial rung model exists for chain_local only: one scheduler per
	// chain, so the rungs add up.  The other flows run stages in parallel.
	perItemNs := medianOf(sat, func(r *trialResult) float64 { return 1e9 / r.itemsPerSec() })
	model := 0.0
	if w.name == "chain_local" {
		v := ms.vals
		model = perItemNs - (4*v["core.direct_call_ns"].Value + v["core.coroutine_hop_ns"].Value +
			v["pipes.buffer_handoff_ns"].Value + v["core.pump_cycle_ns"].Value)
	}
	ms.set("residual.per_item_ns", model, "ns")
	ms.note("residual.per_item_ns", "untraced %.0f ns per item minus 4 direct calls, 1 coroutine hop, 1 buffer handoff, 1 pump cycle; chain_local only", perItemNs)
	un, tr := medianOf(sat, (*trialResult).itemsPerSec), medianOf(satTraced, (*trialResult).itemsPerSec)
	ms.set("trace_overhead_pct", (un-tr)/un*100, "%")
	ms.note("trace_overhead_pct", "saturated: %.0f items/s untraced, %.0f traced", un, tr)

	res.Metrics = ms.vals
	res.Correct = res.Failed == 0
	return res, ms, nil
}

// environment is recorded with every result file.
type environment struct {
	Commit     string  `json:"commit"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
}

// commit reads the checked-out commit from .git in the current directory;
// a checkout that is not a git repository reports "unknown".
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(s, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", ref))
		if err != nil {
			return "unknown"
		}
		return strings.TrimSpace(string(b))
	}
	return s
}

func environmentOf(c config) environment {
	return environment{Commit: commit(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Seed: c.seed, Seconds: c.seconds, Traced: c.traced}
}

// runSet measures the named workloads one after the other, prints every
// metric by name with its unit, and writes the machine-readable result to
// file in the output directory.
func runSet(names []string, gen *generator, c config, file string) (map[string]*result, error) {
	env := environmentOf(c)
	fmt.Printf("bench: commit %s, %d cores, GOMAXPROCS %d, %s, seed %d, %.0f s per workload, trace %v\n",
		env.Commit, env.NumCPU, env.GOMAXPROCS, env.GoVersion, env.Seed, env.Seconds, env.Traced)
	out := make(map[string]*result, len(names))
	trials := make(map[string]map[string][]float64, len(names))
	for _, name := range names {
		w := workloadByName(name)
		measure := measureEndToEnd
		if c.traced {
			measure = measureLayers
		}
		start := time.Now()
		res, ms, err := measure(w, gen, c)
		if err != nil {
			return nil, err
		}
		fmt.Printf("%s: %d items attempted, %d failed, %.1f s\n", name, res.Attempted, res.Failed, time.Since(start).Seconds())
		ms.print(os.Stdout)
		out[name] = res
		trials[name] = ms.trials
	}
	doc := struct {
		Env       environment                     `json:"environment"`
		Workloads map[string]*result              `json:"workloads"`
		Trials    map[string]map[string][]float64 `json:"trials"`
	}{env, out, trials}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(c.outDir, file), data, 0o644); err != nil {
		return nil, err
	}
	return out, nil
}

func allNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (default: all five)")
		seed      = flag.Int64("seed", 1, "seed of every generated input")
		seconds   = flag.Float64("seconds", 20, "measuring time per workload")
		traced    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics and span files")
		outDir    = flag.String("out", ".bench_out", "directory for result.json, span files and watchdog dumps")
		selfcheck = flag.Bool("selfcheck", false, "run the end-to-end set twice and compare against the bounds in BENCHMARK.json")
	)
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(os.Stderr, "bench: --trace is 0 or 1, not %d\n", *traced)
		os.Exit(2)
	}
	c := config{seed: *seed, seconds: *seconds, traced: *traced == 1, outDir: *outDir, scale: 1, minTrials: 3}
	names := allNames()
	if *name != "" {
		if workloadByName(*name) == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
			os.Exit(2)
		}
		names = []string{*name}
	}
	gen := newGenerator(c.seed)
	if *selfcheck {
		os.Exit(runSelfcheck(names, gen, c))
	}
	results, err := runSet(names, gen, c, "result.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	// The last line is the driver's: one object per run.  A run of several
	// workloads prints one line each, the requested order.
	code := 0
	for _, n := range names {
		line, err := json.Marshal(results[n])
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		if !results[n].Correct {
			code = 1
		}
	}
	os.Exit(code)
}
