package uthread

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// scanBestConstraint recomputes the best queued constraint from scratch by
// walking every pending message, independent of the bucket index.
func scanBestConstraint(q *msgQueue) (Priority, bool) {
	best := Priority(0)
	found := false
	consider := func(m *Message) {
		if m.Constraint.Set && (!found || m.Constraint.Level > best) {
			best, found = m.Constraint.Level, true
		}
	}
	for i := range q.buckets {
		r := &q.buckets[i].ring
		for j := 0; j < r.len(); j++ {
			consider(r.at(j))
		}
	}
	for j := 0; j < q.plain.len(); j++ {
		consider(q.plain.at(j))
	}
	return best, found
}

// recomputeEffectiveLocked re-derives the §4 effective priority from first
// principles (the pre-cache definition), for cross-checking the cache.
func recomputeEffectiveLocked(t *Thread) Priority {
	p := t.static
	best, found := scanBestConstraint(&t.mq)
	switch {
	case t.current.Set:
		p = t.current.Level
	case t.state == stateReady:
		if found {
			p = best
		}
	}
	if t.sched.inherit && found && best > p {
		p = best
	}
	return p
}

// TestCachedPriorityNeverDiverges runs a randomized message storm and
// repeatedly asserts, under the scheduler lock, that every thread queued in
// the ready heap carries a cached effective priority identical to a
// from-scratch recomputation — with and without priority inheritance.
func TestCachedPriorityNeverDiverges(t *testing.T) {
	for _, inherit := range []bool{true, false} {
		name := "inherit"
		opts := []Option{}
		if !inherit {
			name = "no-inherit"
			opts = append(opts, WithoutPriorityInheritance())
		}
		t.Run(name, func(t *testing.T) {
			s := New(opts...)
			const nThreads = 8
			const kindWork Kind = KindUserBase + 1
			const kindQuit Kind = KindUserBase + 2
			statics := []Priority{PriorityLow, PriorityNormal, PriorityHigh}
			constraints := []Constraint{
				NoConstraint, NoConstraint,
				At(PriorityLow), At(PriorityNormal), At(PriorityHigh), At(PriorityControl),
			}
			var mu sync.Mutex
			rng := rand.New(rand.NewSource(20011112))
			var threads []*Thread
			budget := 4000
			code := func(th *Thread, m Message) Disposition {
				if m.Kind == kindQuit {
					return Terminate
				}
				mu.Lock()
				if budget <= 0 {
					// Drain the storm: release every peer, then leave.
					peers := append([]*Thread(nil), threads...)
					mu.Unlock()
					for _, p := range peers {
						if p != th {
							th.Send(p, Message{Kind: kindQuit, Constraint: At(PriorityControl)})
						}
					}
					return Terminate
				}
				budget--
				dst := threads[rng.Intn(len(threads))]
				c := constraints[rng.Intn(len(constraints))]
				doYield := rng.Intn(4) == 0
				mu.Unlock()
				th.Send(dst, Message{Kind: kindWork, Constraint: c})
				if doYield {
					th.Yield()
				}
				return Continue
			}
			for i := 0; i < nThreads; i++ {
				threads = append(threads, s.Spawn("w", statics[i%len(statics)], code))
			}
			for i, th := range threads {
				s.Post(th, Message{Kind: kindWork, Constraint: constraints[i%len(constraints)]})
			}
			done := s.RunBackground()
			checks := 0
			for {
				select {
				case err := <-done:
					if err != nil {
						t.Fatalf("Run: %v", err)
					}
					if checks == 0 {
						t.Fatal("workload finished before any invariant check ran")
					}
					t.Logf("verified cache on %d snapshots", checks)
					return
				default:
				}
				s.mu.Lock()
				for _, th := range s.ready.items {
					if got, want := th.effPrio, recomputeEffectiveLocked(th); got != want {
						s.mu.Unlock()
						t.Fatalf("thread %q: cached effective priority %d, recomputed %d", th.name, got, want)
					}
				}
				s.mu.Unlock()
				checks++
				time.Sleep(50 * time.Microsecond)
			}
		})
	}
}

// refQueue is the pre-bucketing reference implementation of the message
// queue: a flat arrival-ordered slice scanned with the old constraintLess
// rule.  msgQueue must deliver in exactly the same order.
type refQueue []Message

func refLess(a, b Constraint) bool {
	if a.Set != b.Set {
		return b.Set
	}
	if a.Set && a.Level != b.Level {
		return b.Level > a.Level
	}
	return false
}

func (q *refQueue) popMatch(pred func(Message) bool) (Message, bool) {
	bestIdx := -1
	for i := range *q {
		m := &(*q)[i]
		if pred != nil && !pred(*m) {
			continue
		}
		if bestIdx < 0 || refLess((*q)[bestIdx].Constraint, m.Constraint) {
			bestIdx = i
		}
	}
	if bestIdx < 0 {
		return Message{}, false
	}
	m := (*q)[bestIdx]
	*q = append((*q)[:bestIdx], (*q)[bestIdx+1:]...)
	return m, true
}

// TestMsgQueueMatchesReference drives the bucketed queue and the reference
// queue with an identical random operation stream and requires identical
// delivery order, best-constraint answers and lengths throughout.
func TestMsgQueueMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	levels := []Constraint{
		NoConstraint,
		At(PriorityLow), At(PriorityNormal), At(PriorityHigh), At(PriorityControl),
	}
	preds := []func(Message) bool{
		nil,
		func(m Message) bool { return m.Kind == KindTimer },
		func(m Message) bool { return m.seq%3 == 0 },
		func(m Message) bool { return m.Constraint.Set },
	}
	var q msgQueue
	var ref refQueue
	var seq uint64
	for op := 0; op < 20000; op++ {
		if rng.Intn(2) == 0 || q.len() == 0 {
			seq++
			kind := KindUserBase
			if rng.Intn(5) == 0 {
				kind = KindTimer
			}
			m := Message{Kind: kind, Constraint: levels[rng.Intn(len(levels))], seq: seq}
			q.push(m)
			ref = append(ref, m)
		} else {
			pred := preds[rng.Intn(len(preds))]
			got, gok := q.popMatch(pred)
			want, wok := ref.popMatch(pred)
			if gok != wok || got.seq != want.seq {
				t.Fatalf("op %d: popMatch got (seq=%d,%v), reference (seq=%d,%v)",
					op, got.seq, gok, want.seq, wok)
			}
		}
		if q.len() != len(ref) {
			t.Fatalf("op %d: len %d, reference %d", op, q.len(), len(ref))
		}
		gb, gf := q.bestConstraint()
		wb, wf := scanBestConstraint(&q)
		if gb != wb || gf != wf {
			t.Fatalf("op %d: bestConstraint (%d,%v), scan (%d,%v)", op, gb, gf, wb, wf)
		}
	}
}

// TestTimerCancelO1Semantics pins the cancel contract after the token-map
// change: cancel is true exactly once per pending timer, false after firing,
// and cancelled timers never fire.
func TestTimerCancelO1Semantics(t *testing.T) {
	s := New()
	fired := make(map[TimerToken]bool)
	var toks []TimerToken
	th := s.Spawn("sink", PriorityNormal, func(th *Thread, m Message) Disposition {
		if m.Kind == KindTimer {
			fired[m.Timer()] = true
		}
		if len(fired) == 50 {
			return Terminate
		}
		return Continue
	})
	for i := 0; i < 100; i++ {
		toks = append(toks, s.TimerAfter(time.Duration(i+1)*time.Millisecond, th))
	}
	// Cancel every second timer; each cancel must report pending exactly once.
	for i := 0; i < 100; i += 2 {
		if !s.CancelTimer(toks[i]) {
			t.Fatalf("timer %d: first cancel reported not pending", i)
		}
		if s.CancelTimer(toks[i]) {
			t.Fatalf("timer %d: second cancel reported pending", i)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, tok := range toks {
		if i%2 == 0 && fired[tok] {
			t.Fatalf("cancelled timer %d fired", i)
		}
		if i%2 == 1 && !fired[tok] {
			t.Fatalf("live timer %d never fired", i)
		}
	}
	// After firing, cancel must report not-pending.
	if s.CancelTimer(toks[1]) {
		t.Error("cancel after firing reported pending")
	}
}

// TestMsgRingBoundedByDepth guards the compaction in msgRing.pop: a mailbox
// that always holds a few pending messages (producer persistently ahead of
// its consumer) must keep O(peak depth) memory, not grow with total traffic.
func TestMsgRingBoundedByDepth(t *testing.T) {
	var q msgQueue
	var seq uint64
	for i := 0; i < 200_000; i++ {
		seq++
		q.push(Message{Kind: KindUserBase, seq: seq})
		if q.len() > 4 {
			if _, ok := q.popMatch(nil); !ok {
				t.Fatal("popMatch failed on non-empty queue")
			}
		}
	}
	if c := cap(q.plain.buf); c > 1024 {
		t.Fatalf("ring backing array grew to %d slots for a depth-4 queue", c)
	}
}
