package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/item"
	"infopipes/internal/pipes"
)

// sampleEvery is the stride of the traced run: one item in 16 is stamped.
const sampleEvery = 16

// A workload's hops name the spans between the layer boundaries of its flow,
// in order: hop i ends at boundary i and starts at boundary i-1 (the first
// one at the item's creation).  The last boundary is always the sink.

// stampRec holds the stamps of one traced trial: for every boundary but the
// sink (whose arrival times the oracle already records), the wall time at
// which each sampled item crossed it, in arrays allocated before the flow
// starts.
type stampRec struct {
	base time.Time
	at   [][]int64 // [boundary][seq/sampleEvery] ns since base, 0 = not seen
}

func newStampRec(hops []string, items int64) *stampRec {
	r := &stampRec{}
	for range hops[:len(hops)-1] {
		r.at = append(r.at, make([]int64, items/sampleEvery+1))
	}
	return r
}

// stage returns the benchmark-owned function-style stage that stamps
// boundary i.  It lives in the flow only on traced trials.
func (r *stampRec) stage(name string, i int) *pipes.FuncFilter {
	at := r.at[i]
	return pipes.NewFuncFilter(name, func(_ *core.Ctx, it *item.Item) (*item.Item, error) {
		if it.Seq%sampleEvery == 0 {
			at[it.Seq/sampleEvery] = int64(time.Since(r.base))
		}
		return it, nil
	})
}

// span is one traced interval.  Spans of one item share its seq as id;
// set-up spans have id 0.  Times are nanoseconds since the trial's base.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// walkHops calls fn for every hop of every sampled item after the first skip
// that reached the sink.  The hops of one item tile the interval from its
// creation to its arrival at the sink, so they sum to its transit time.
func walkHops(hops []string, st *stampRec, or *oracle, skip int64, fn func(seq int64, hop string, start, end int64)) {
	for seq := int64(sampleEvery); seq <= or.offered; seq += sampleEvery {
		if seq <= skip || or.seen[seq-1] == 0 {
			continue
		}
		prev := or.created[seq-1]
		for i, hop := range hops {
			at := or.arrived[seq-1]
			if i < len(st.at) {
				at = st.at[i][seq/sampleEvery]
			}
			fn(seq, hop, prev, at)
			prev = at
		}
	}
}

// hopSamples folds a traced paced trial into per-hop durations, leaving out
// the same warm-up items the transit samples leave out.
func hopSamples(hops []string, st *stampRec, or *oracle, skip int64) map[string][]int64 {
	out := make(map[string][]int64, len(hops))
	walkHops(hops, st, or, skip, func(_ int64, hop string, start, end int64) {
		out[hop] = append(out[hop], end-start)
	})
	return out
}

// traceFile is what one traced trial writes out: the spans of every sampled
// item (root "item" from due time to sink arrival, child "pipes.pump_wait"
// from due time to creation, then one child per boundary), the spans of the
// wrapped set-up calls under a root "setup", and the counters read at the
// same boundaries.
type traceFile struct {
	Workload string             `json:"workload"`
	Regime   string             `json:"regime"`
	Seed     int64              `json:"seed"`
	Items    int64              `json:"items"`
	Sampled  int                `json:"sampled_items"`
	Counters map[string]float64 `json:"counters"`
	Spans    []span             `json:"spans"`
}

func buildTrace(t *trial, res *trialResult) *traceFile {
	tf := &traceFile{Workload: t.w.name, Regime: t.regime(), Seed: t.seed, Items: t.items,
		Counters: res.counterMap()}
	if len(t.setup) > 0 {
		tf.Spans = append(tf.Spans, span{Name: "setup", Start: t.setup[0].Start, End: int64(t.started.Sub(t.base))})
		tf.Spans = append(tf.Spans, t.setup...)
	}
	or := t.or
	walkHops(t.w.hops, t.stamps, or, 0, func(seq int64, hop string, start, end int64) {
		if hop == t.w.hops[0] {
			// First hop of an item: open its root span, from its due time in
			// the paced regime (the wait for the pump is a child of its own).
			tf.Sampled++
			root := span{Name: "item", ID: seq, Start: start, End: or.arrived[seq-1]}
			if t.rate > 0 {
				root.Start = t.due(seq)
				tf.Spans = append(tf.Spans, span{Name: "pipes.pump_wait", ID: seq, Parent: "item", Start: root.Start, End: start})
			}
			tf.Spans = append(tf.Spans, root)
		}
		tf.Spans = append(tf.Spans, span{Name: hop, ID: seq, Parent: "item", Start: start, End: end})
	})
	return tf
}

func writeTrace(dir string, tf *traceFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	name := filepath.Join(dir, fmt.Sprintf("trace-%s.json", tf.Workload))
	return os.WriteFile(name, data, 0o644)
}
