package main

import (
	"regexp"
	"sort"
	"testing"
	"time"

	"infopipes/internal/item"
)

// smoke is the configuration of the timing-free tests: a hundredth of every
// item count, one trial per regime, no time budget.
var smoke = config{seed: 7, seconds: 0, scale: 0.01, minTrials: 1}

func smokeConfig(t *testing.T, traced bool) config {
	c := smoke
	c.traced = traced
	c.outDir = t.TempDir()
	return c
}

func keys(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload end to end and, traced, every rung, with
// the oracles on.  It asserts correctness and the metric names only: the
// names and units every run prints are exactly those BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	m, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, e := range m.EndToEnd {
		endToEnd[e.Name] = e.Unit
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("BENCHMARK.json: bound of %s is %v, want (0, 0.25]", e.Name, e.Bound)
		}
	}
	for _, e := range m.PerLayer {
		perLayer[e.Name] = e.Unit
	}
	if len(m.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(m.Workloads), len(workloads))
	}
	for _, mw := range m.Workloads {
		if workloadByName(mw.Name) == nil {
			t.Errorf("BENCHMARK.json lists workload %q, which the benchmark does not have", mw.Name)
		}
	}

	gen := newGenerator(smoke.seed)
	for _, w := range workloads {
		for _, mode := range []struct {
			traced bool
			want   map[string]string
		}{{false, endToEnd}, {true, perLayer}} {
			measure := measureEndToEnd
			if mode.traced {
				measure = measureLayers
			}
			res, _, err := measure(w, gen, smokeConfig(t, mode.traced))
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, mode.traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace %v): correct=%v attempted=%d failed=%d", w.name, mode.traced, res.Correct, res.Attempted, res.Failed)
			}
			if !nameRE.MatchString(w.name) {
				t.Errorf("workload name %q is not a valid name", w.name)
			}
			for _, name := range keys(res.Metrics) {
				unit, listed := mode.want[name]
				if !listed {
					t.Errorf("%s (trace %v) printed %q, which BENCHMARK.json does not list", w.name, mode.traced, name)
				} else if got := res.Metrics[name].Unit; got != unit {
					t.Errorf("%s: %s printed in %q, BENCHMARK.json says %q", w.name, name, got, unit)
				}
				if !nameRE.MatchString(name) || !unitRE.MatchString(res.Metrics[name].Unit) {
					t.Errorf("%s: metric %q unit %q is outside the allowed characters", w.name, name, res.Metrics[name].Unit)
				}
			}
			for name := range mode.want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s (trace %v) did not print %q, which BENCHMARK.json lists", w.name, mode.traced, name)
				}
			}
		}
	}
}

// TestTraceTilesTransit checks that the hops of a traced item tile its
// journey: for every sampled item the hop durations sum to its transit time.
func TestTraceTilesTransit(t *testing.T) {
	w := workloadByName("paced_ladder")
	c := smokeConfig(t, true)
	_, tr, err := c.run(w, newGenerator(c.seed), w.pacedItems, w.pacedRate, true)
	if err != nil {
		t.Fatal(err)
	}
	sampled := 0
	for seq := int64(sampleEvery); seq <= tr.or.offered; seq += sampleEvery {
		prev := tr.or.created[seq-1]
		for i := range tr.stamps.at {
			at := tr.stamps.at[i][seq/sampleEvery]
			if at < prev {
				t.Errorf("item %d crossed boundary %d at %d ns, before the previous boundary at %d ns", seq, i, at, prev)
			}
			prev = at
		}
		if arrived := tr.or.arrived[seq-1]; arrived < prev {
			t.Errorf("item %d reached the sink at %d ns, before its last boundary at %d ns", seq, arrived, prev)
		}
		sampled++
	}
	if sampled == 0 {
		t.Fatal("no item was sampled")
	}
}

// TestOracleCountsFailures feeds the oracle a stream with one duplicate,
// one reordered, one corrupted and one missing item.
func TestOracleCountsFailures(t *testing.T) {
	g := newGenerator(1)
	o := newOracle("sink", 8)
	o.base = time.Now()
	o.verify = func(seq int64, payload any) bool { return payload == any(g.word(seq)) }
	push := func(seq int64, payload int64) {
		if err := o.Push(nil, item.New(payload, seq, time.Now())); err != nil {
			t.Fatal(err)
		}
	}
	push(1, g.word(1))
	push(2, g.word(2))
	push(2, g.word(2))   // duplicate: item 2 was not delivered exactly once
	push(4, g.word(4))   // item 3 overtaken...
	push(3, g.word(3))   // ...so it arrives out of order
	push(5, g.word(5)+1) // corrupted
	push(6, g.word(6))
	push(7, g.word(7))
	push(9, g.word(9)) // out of range: ignored; item 8 is missing
	if got := o.failed(); got != 4 {
		t.Errorf("failed() = %d, want 4 (one duplicated, one reordered, one corrupted, one missing)", got)
	}
}

// TestWatchdogNeverHangs runs a flow that never ends and checks that the
// trial returns with every undelivered item counted failed.
func TestWatchdogNeverHangs(t *testing.T) {
	stopped := make(chan struct{})
	hang := &workload{name: "hang", hops: chainHops, build: func(*trial) (*flow, error) {
		return &flow{
			start: func() {},
			wait:  func() error { <-stopped; return nil },
			stop:  func() { close(stopped) },
		}, nil
	}}
	res, err := runTrial(newTrial(hang, newGenerator(1), 1, 100, 0, false), 50*time.Millisecond, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !res.watchdog || res.failed != 100 {
		t.Errorf("watchdog=%v failed=%d, want true and 100", res.watchdog, res.failed)
	}
}

// TestSelfcheckIsTwoSided: a second set that is much better than the first
// is as unrepeatable as one that is much worse, and a metric that read 0
// never passes.
func TestSelfcheckIsTwoSided(t *testing.T) {
	for _, c := range []struct {
		a, b float64
		ok   bool
	}{{100, 120, true}, {120, 100, true}, {100, 140, false}, {140, 100, false}, {0, 100, false}, {100, 0, false}, {0, 0, false}} {
		if _, ok := apart(c.a, c.b, 0.25); ok != c.ok {
			t.Errorf("apart(%v, %v, 0.25) ok = %v, want %v", c.a, c.b, ok, c.ok)
		}
	}
}
