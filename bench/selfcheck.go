package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// manifest is the part of BENCHMARK.json the benchmark itself reads.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// apart reports by how much two values of a metric differ, as a share of the
// smaller one, and whether that is within bound.  A value that is not
// positive never is: a set the watchdog killed reads 0.
func apart(a, b, bound float64) (float64, bool) {
	differ := math.Abs(a-b) / min(a, b)
	return differ, a > 0 && b > 0 && differ <= bound
}

// runSelfcheck measures the end-to-end set twice with the same binary and
// fails if the two values of any metric differ, either way, by more than the
// metric's bound: the repeatability a later comparison of two commits relies
// on.  A metric that reads 0 (a set the watchdog killed) fails too.  It
// returns the exit code.
func runSelfcheck(names []string, gen *generator, c config) int {
	m, err := readManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: selfcheck: %v\n", err)
		return 2
	}
	c.traced = false
	var sets [2]map[string]*result
	for i := range sets {
		fmt.Printf("selfcheck: set %d\n", i+1)
		if sets[i], err = runSet(names, gen, c, fmt.Sprintf("result-%d.json", i+1)); err != nil {
			fmt.Fprintf(os.Stderr, "bench: selfcheck: %v\n", err)
			return 1
		}
	}
	code := 0
	fmt.Printf("selfcheck: %-20s %-16s %16s %16s %9s %7s\n", "workload", "metric", "set 1", "set 2", "differ by", "bound")
	for _, name := range names {
		for _, e := range m.EndToEnd {
			a, b := sets[0][name].Metrics[e.Name].Value, sets[1][name].Metrics[e.Name].Value
			differ, ok := apart(a, b, e.Bound)
			verdict := ""
			if !ok {
				verdict = "  FAIL"
				code = 1
			}
			fmt.Printf("selfcheck: %-20s %-16s %16.6f %16.6f %8.1f%% %6.0f%%%s\n",
				name, e.Name, a, b, differ*100, e.Bound*100, verdict)
		}
		for i := range sets {
			if !sets[i][name].Correct {
				fmt.Printf("selfcheck: %s: set %d failed %d items\n", name, i+1, sets[i][name].Failed)
				code = 1
			}
		}
	}
	return code
}
