package uthread

import (
	"strings"
	"testing"
)

// spawnSelfPosting spawns a classed thread that keeps itself ready for
// `rounds` grants: each message appends its tag to the shared order log and
// re-posts itself, so the thread competes for every scheduling decision
// until its budget runs out.
func spawnSelfPosting(s *Scheduler, name, tag string, class *SchedClass, rounds int, order *[]string) *Thread {
	n := 0
	var th *Thread
	th = s.SpawnClassed(name, PriorityNormal, class, func(t *Thread, m Message) Disposition {
		*order = append(*order, tag)
		n++
		if n >= rounds {
			return Terminate
		}
		s.Post(th, Message{Kind: kindData})
		return Continue
	})
	return th
}

// fairRun runs one continuously-ready thread per weight, each in its own
// class with a budget of rounds grants, and returns the grant order as a
// string of per-class tags ('a' for weights[0], 'b' for weights[1], ...).
func fairRun(t *testing.T, weights []int, rounds int) (string, *Scheduler, []*SchedClass) {
	t.Helper()
	s := New()
	var order []string
	classes := make([]*SchedClass, len(weights))
	threads := make([]*Thread, len(weights))
	for i, w := range weights {
		tag := string(rune('a' + i))
		classes[i] = NewSchedClass(tag, w)
		threads[i] = spawnSelfPosting(s, tag, tag, classes[i], rounds, &order)
	}
	for _, th := range threads {
		s.Post(th, Message{Kind: kindData})
	}
	runScheduler(t, s)
	return strings.Join(order, ""), s, classes
}

// TestWeightedFairGrantShares is the WFQ contract: continuously-ready
// classes must receive grants in proportion to their weights over any
// window in which all of them are backlogged — 4:2:1 within 15 %, and four
// equal weights within 10 % (an equal split is the case a bias in the
// tie-break would show first).
func TestWeightedFairGrantShares(t *testing.T) {
	const rounds = 2100
	for _, tc := range []struct {
		weights []int
		// window ends before the FIRST class exhausts its budget: the
		// heaviest class, at weight/sum of the grant stream, runs dry after
		// rounds*sum/weight grants (3675 for 4:2:1, 8400 for four equals).
		window int
		tol    float64
	}{
		{[]int{4, 2, 1}, 3500, 0.15},
		{[]int{1, 1, 1, 1}, 8000, 0.10},
	} {
		order, s, classes := fairRun(t, tc.weights, rounds)
		if len(order) < tc.window {
			t.Fatalf("weights %v: %d grants logged, want at least %d", tc.weights, len(order), tc.window)
		}
		sum := 0
		for _, w := range tc.weights {
			sum += w
		}
		for i, w := range tc.weights {
			tag := string(rune('a' + i))
			got := float64(strings.Count(order[:tc.window], tag)) / float64(tc.window)
			want := float64(w) / float64(sum)
			if got < want*(1-tc.tol) || got > want*(1+tc.tol) {
				t.Errorf("weights %v: class %s share %.3f, want %.3f ±%.0f%%", tc.weights, tag, got, want, tc.tol*100)
			}
		}
		// The accounting is integer and the scheduler single-threaded: the
		// grant order must be bit-for-bit reproducible.
		if again, _, _ := fairRun(t, tc.weights, rounds); again != order {
			t.Fatalf("weights %v: grant order is not reproducible across identical runs", tc.weights)
		}
		// Telemetry: grants were charged to the classes, and the virtual
		// clock advanced.  Grant counts are not 1:1 with messages — an
		// uncontended thread keeps its run token across messages — so only
		// their presence is asserted here; the share math above is the real
		// contract.
		for _, c := range classes {
			if c.Granted() == 0 {
				t.Fatalf("weights %v: class %s was never charged a grant", tc.weights, c.Name())
			}
		}
		if s.FairNow() == 0 {
			t.Fatalf("weights %v: scheduler virtual time never advanced under classed load", tc.weights)
		}
	}
}

// TestWeightedFairChargesPerCycle: the account charges the cycles a grant
// ran, not the grant.  Two classes at weight 1:1, both always ready; one
// thread ends each grant after 16 units of work (YieldAfter(16)), the other
// after one.  Work must split 1:1 within 10 % while both are backlogged —
// charged per grant, the batching thread would do 16 units to the other's 1.
func TestWeightedFairChargesPerCycle(t *testing.T) {
	const budget = 4000 // units per thread
	s := New()
	var order []byte
	spawn := func(tag byte, batch int) *Thread {
		return s.SpawnClassed(string(tag), PriorityNormal, NewSchedClass(string(tag), 1),
			func(t *Thread, m Message) Disposition {
				for n := 1; n <= budget; n++ {
					order = append(order, tag)
					if n%batch == 0 {
						t.YieldAfter(batch)
					}
				}
				return Terminate
			})
	}
	for _, th := range []*Thread{spawn('a', 16), spawn('b', 1)} {
		s.Post(th, Message{Kind: kindData})
	}
	runScheduler(t, s)
	// The window ends when each thread has done half its budget at 1:1.
	window := string(order[:budget])
	got := float64(strings.Count(window, "a")) / float64(len(window))
	if got < 0.5*0.9 || got > 0.5*1.1 {
		t.Fatalf("batching class did %.3f of the work, want 0.500 ±10%% (units charged per grant, not per cycle?)", got)
	}
}

// TestPriorityDominatesFairness: fairness is a tie-break among equal
// priorities, never an inversion — a high-priority classless thread
// preempts classed Normal threads regardless of their credit state.
func TestPriorityDominatesFairness(t *testing.T) {
	s := New()
	var order []string
	cls := NewSchedClass("tenant", 8)
	worker := spawnSelfPosting(s, "worker", "w", cls, 50, &order)
	hi := s.Spawn("hi", PriorityHigh, func(t *Thread, m Message) Disposition {
		order = append(order, "H")
		return Terminate
	})
	s.Post(worker, Message{Kind: kindData})
	s.Post(hi, Message{Kind: kindData})
	runScheduler(t, s)
	if order[0] != "H" {
		t.Fatalf("high-priority thread ran at position %v, want first (order %v)", order[0], order[:5])
	}
}

// TestClasslessSchedulingUntouched: with no classes in play the fair clock
// must never advance — the pre-fairness scheduler behaviour, and the
// byte-identical default-tenant guarantee, rest on vnow staying zero.
func TestClasslessSchedulingUntouched(t *testing.T) {
	s := New()
	var order []string
	w1 := spawnSelfPosting(s, "w1", "1", nil, 100, &order)
	w2 := spawnSelfPosting(s, "w2", "2", nil, 100, &order)
	s.Post(w1, Message{Kind: kindData})
	s.Post(w2, Message{Kind: kindData})
	runScheduler(t, s)
	if got := s.FairNow(); got != 0 {
		t.Fatalf("FairNow = %d after a classless run, want 0", got)
	}
	if len(order) != 200 {
		t.Fatalf("ran %d grants, want 200", len(order))
	}
}

// TestSchedClassSingleSchedulerBind: sharing one class across schedulers
// would make the credit account racy; the second bind must panic.
func TestSchedClassSingleSchedulerBind(t *testing.T) {
	s1, s2 := New(), New()
	cls := NewSchedClass("shared", 2)
	th := s1.SpawnClassed("t1", PriorityNormal, cls, func(t *Thread, m Message) Disposition {
		return Terminate
	})
	s1.Post(th, Message{Kind: kindData})
	runScheduler(t, s1)
	defer func() {
		if recover() == nil {
			t.Fatal("binding one SchedClass to a second scheduler did not panic")
		}
		// Unwind s2: the spawn panicked before the thread existed.
		s2.Stop()
	}()
	s2.SpawnClassed("t2", PriorityNormal, cls, func(t *Thread, m Message) Disposition {
		return Terminate
	})
}

// TestSchedClassMinimumWeight: weight 0 (or negative) clamps to 1 instead
// of dividing by zero in the cost computation.
func TestSchedClassMinimumWeight(t *testing.T) {
	c := NewSchedClass("x", 0)
	if c.Weight() != 1 {
		t.Fatalf("weight clamped to %d, want 1", c.Weight())
	}
}
