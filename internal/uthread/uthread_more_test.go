package uthread

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"infopipes/internal/vclock"
)

func TestSleepUntilOrCancelled(t *testing.T) {
	s := New()
	cancelled := false
	var slept bool
	th := s.Spawn("sleeper", PriorityNormal, func(t *Thread, m Message) Disposition {
		if m.Kind == kindCtrl {
			return Continue
		}
		t.SetControlDispatch(
			func(m Message) bool { return m.Kind == kindCtrl },
			func(t *Thread, m Message) { cancelled = true },
		)
		slept = t.SleepUntilOr(s.Now().Add(time.Hour), func() bool { return cancelled })
		return Terminate
	})
	s.Post(th, Message{Kind: kindStart})
	// A second thread delivers the cancel control.
	helper := s.Spawn("helper", PriorityLow, func(t *Thread, m Message) Disposition {
		t.Send(th, Message{Kind: kindCtrl, Constraint: At(PriorityControl)})
		return Terminate
	})
	s.Post(helper, Message{Kind: kindStart})
	runScheduler(t, s)
	if slept {
		t.Fatal("SleepUntilOr reported a full sleep despite cancellation")
	}
	// The cancelled timer must not linger (the virtual clock must not
	// have advanced an hour).
	if s.Now().Sub(vclock.Epoch) >= time.Hour {
		t.Fatal("cancelled sleep still advanced the clock")
	}
}

func TestSleepUntilOrPastDeadline(t *testing.T) {
	s := New()
	var ok bool
	th := s.Spawn("sleeper", PriorityNormal, func(t *Thread, m Message) Disposition {
		ok = t.SleepUntilOr(s.Now().Add(-time.Second), nil)
		return Terminate
	})
	s.Post(th, Message{Kind: kindStart})
	runScheduler(t, s)
	if !ok {
		t.Fatal("past deadline must report true")
	}
}

// TestSleepUntilOrAllocFree guards the paced half of the hot path: a clocked
// pump sleeps once per cycle, and the whole round trip — arm the timer, park,
// idle the scheduler, advance the virtual clock, fire, match, grant — must
// not allocate (it was 3-4 per sleep: the predicate closure, the token boxed
// into Message.Data, and a boxed heap entry each way).
func TestSleepUntilOrAllocFree(t *testing.T) {
	s := New()
	never := func() bool { return false }
	var perSleep float64
	th := s.Spawn("sleeper", PriorityNormal, func(th *Thread, _ Message) Disposition {
		perSleep = testing.AllocsPerRun(1000, func() {
			if !th.SleepUntilOr(s.Now().Add(time.Millisecond), never) {
				t.Error("an uncancelled sleep reported cancellation")
			}
		})
		return Terminate
	})
	s.Post(th, Message{Kind: kindStart})
	runScheduler(t, s)
	if perSleep != 0 {
		t.Fatalf("SleepUntilOr allocates %.2f objects per sleep, want 0", perSleep)
	}
}

func TestDispatchControlHonoursHook(t *testing.T) {
	s := New()
	var dispatched []Kind
	th := s.Spawn("d", PriorityNormal, func(t *Thread, m Message) Disposition {
		t.SetControlDispatch(
			func(m Message) bool { return m.Kind == kindCtrl },
			func(t *Thread, m Message) { dispatched = append(dispatched, m.Kind) },
		)
		if !t.DispatchControl(Message{Kind: kindCtrl}) {
			s.fail(ErrStopped)
		}
		if t.DispatchControl(Message{Kind: kindData}) {
			s.fail(ErrStopped) // non-matching kinds must not dispatch
		}
		return Terminate
	})
	s.Post(th, Message{Kind: kindStart})
	runScheduler(t, s)
	if len(dispatched) != 1 || dispatched[0] != kindCtrl {
		t.Fatalf("dispatched = %v", dispatched)
	}
}

func TestTryReceive(t *testing.T) {
	s := New()
	var got []int
	th := s.Spawn("t", PriorityNormal, func(t *Thread, m Message) Disposition {
		// One message invoked us; two more are queued.
		for {
			msg, ok := t.TryReceive(nil)
			if !ok {
				break
			}
			got = append(got, msg.Data.(int))
		}
		if _, ok := t.TryReceive(nil); ok {
			s.fail(ErrStopped) // empty queue must not produce a message
		}
		return Terminate
	})
	s.Post(th, Message{Kind: kindData, Data: 1})
	s.Post(th, Message{Kind: kindData, Data: 2})
	s.Post(th, Message{Kind: kindData, Data: 3})
	runScheduler(t, s)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("got %v, want [2 3] (first message consumed by invocation)", got)
	}
}

func TestQueueLenAndCurrentConstraint(t *testing.T) {
	s := New()
	th := s.Spawn("q", PriorityNormal, func(t *Thread, m Message) Disposition {
		if got := t.CurrentConstraint(); !got.Set || got.Level != PriorityHigh {
			s.fail(ErrStopped)
		}
		if t.QueueLen() != 1 {
			s.fail(ErrDeadlock)
		}
		t.Receive()
		return Terminate
	})
	s.Post(th, Message{Kind: kindStart, Constraint: At(PriorityHigh)})
	s.Post(th, Message{Kind: kindData})
	runScheduler(t, s)
}

func TestTimerOrderingManyTimers(t *testing.T) {
	// Many timers registered out of order fire in deadline order.
	s := New()
	const n = 50
	var fired []int
	th := s.Spawn("timers", PriorityNormal, func(t *Thread, m Message) Disposition {
		if m.Kind == KindTimer {
			return Continue
		}
		perm := rand.New(rand.NewSource(3)).Perm(n)
		for _, i := range perm {
			i := i
			dst := s.Spawn("w", PriorityNormal, func(t *Thread, m Message) Disposition {
				fired = append(fired, i)
				return Terminate
			})
			s.TimerAt(s.Now().Add(time.Duration(i+1)*time.Millisecond), dst)
		}
		return Terminate
	})
	s.Post(th, Message{Kind: kindStart})
	runScheduler(t, s)
	if len(fired) != n {
		t.Fatalf("fired %d, want %d", len(fired), n)
	}
	if !sort.IntsAreSorted(fired) {
		t.Fatalf("timers fired out of order: %v", fired)
	}
}

// Property: for any set of queued constraints, delivery is ordered by
// (set desc, level desc, FIFO).
func TestMailboxDeliveryOrderProperty(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(10)
		type entry struct {
			c   Constraint
			idx int
		}
		entries := make([]entry, n)
		for i := range entries {
			var c Constraint
			if r.Intn(2) == 0 {
				c = At(Priority(r.Intn(3) * 10))
			}
			entries[i] = entry{c: c, idx: i}
		}
		s := New()
		var got []entry
		th := s.Spawn("m", PriorityNormal, func(t *Thread, m Message) Disposition {
			if m.Kind == kindStop {
				return Terminate
			}
			got = append(got, m.Data.(entry))
			if len(got) == n {
				return Terminate
			}
			return Continue
		})
		// Queue everything before the scheduler runs so all are pending.
		for _, e := range entries {
			s.Post(th, Message{Kind: kindData, Data: e, Constraint: e.c})
		}
		if err := s.Run(); err != nil {
			return false
		}
		if len(got) != n {
			return false
		}
		// Verify order: higher constraint first; unset last; FIFO within.
		rank := func(e entry) int {
			if !e.c.Set {
				return -1
			}
			return int(e.c.Level)
		}
		for i := 1; i < len(got); i++ {
			a, b := got[i-1], got[i]
			if rank(a) < rank(b) {
				return false
			}
			if rank(a) == rank(b) && a.idx > b.idx {
				return false // FIFO violated within a level
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSpawnFromCodeFunction(t *testing.T) {
	s := New()
	var childRan bool
	parent := s.Spawn("parent", PriorityNormal, func(t *Thread, m Message) Disposition {
		child := s.Spawn("child", PriorityNormal, func(t *Thread, m Message) Disposition {
			childRan = true
			return Terminate
		})
		t.Send(child, Message{Kind: kindData})
		return Terminate
	})
	s.Post(parent, Message{Kind: kindStart})
	runScheduler(t, s)
	if !childRan {
		t.Fatal("child spawned from a code function never ran")
	}
}

func TestSendToTerminatedThreadIsDropped(t *testing.T) {
	s := New()
	dead := s.Spawn("dead", PriorityNormal, func(t *Thread, m Message) Disposition {
		return Terminate
	})
	alive := s.Spawn("alive", PriorityNormal, func(t *Thread, m Message) Disposition {
		if m.Kind == kindData {
			t.Send(dead, Message{Kind: kindData}) // must not wedge anything
			return Terminate
		}
		return Continue
	})
	s.Post(dead, Message{Kind: kindStart})
	s.Post(alive, Message{Kind: kindData})
	runScheduler(t, s)
}

func TestRunBackgroundAndStopIdempotent(t *testing.T) {
	s := New(WithClock(vclock.Real{}))
	s.AddExternalSource()
	errc := s.RunBackground()
	s.Stop()
	s.Stop() // idempotent
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return")
	}
}

func TestYieldRoundRobinAmongEquals(t *testing.T) {
	// Two equal-priority threads that yield per step interleave rather
	// than running to completion one after the other.
	s := New()
	var order []string
	mk := func(name string, n int) *Thread {
		return s.Spawn(name, PriorityNormal, func(t *Thread, m Message) Disposition {
			for i := 0; i < n; i++ {
				order = append(order, name)
				t.Yield()
			}
			return Terminate
		})
	}
	a := mk("a", 5)
	b := mk("b", 5)
	s.Post(a, Message{Kind: kindStart})
	s.Post(b, Message{Kind: kindStart})
	runScheduler(t, s)
	// Expect a b a b ... rather than aaaaabbbbb.
	interleaved := false
	for i := 1; i < len(order); i++ {
		if order[i] != order[i-1] {
			interleaved = true
			break
		}
	}
	if !interleaved {
		t.Fatalf("no interleaving: %v", order)
	}
}

// TestMessageFitsACacheLine: every mailbox slot is a Message and every
// switch copies a few; at 72 bytes (a field more) chain_local lost 3-4 % of
// its saturated items/s.
func TestMessageFitsACacheLine(t *testing.T) {
	if s := unsafe.Sizeof(Message{}); s > 64 {
		t.Fatalf("Message is %d bytes, want at most 64", s)
	}
}
