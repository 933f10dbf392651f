package uthread_test

import (
	"bytes"
	"iter"
	"runtime"
	"strings"
	"testing"
	"time"

	"infopipes/internal/leakcheck"
	"infopipes/internal/shard"
	"infopipes/internal/uthread"
)

// The property the Infopipe layer's coroutine sets rest on: the thread-side
// API may be called from a pull coroutine nested in a thread's body.  A
// blocking wait there parks the whole thread and the next grant resumes that
// same nested coroutine; a Stop while it is parked unwinds every level; a
// panic there fails Run naming the thread.  The runtime's coroutine switch is
// symmetric, so this holds today; these tests make a toolchain that changes
// it fail loudly.  Each runs on a plain scheduler and on a pinned shard,
// whose Run is locked to its OS thread.

const kindWake = uthread.KindUserBase + 120

// onEachScheduler runs body once on a plain scheduler and once on a pinned
// one-shard group; run runs the scheduler to the end.
func onEachScheduler(t *testing.T, body func(t *testing.T, s *uthread.Scheduler, run func() error)) {
	t.Run("plain", func(t *testing.T) {
		s := uthread.New()
		body(t, s, s.Run)
	})
	t.Run("pinned", func(t *testing.T) {
		g := shard.NewGroup(shard.WithShardCount(1), shard.WithPinnedShards())
		body(t, g.Scheduler(0), g.Run)
	})
}

// twoDeep runs fn on a pull coroutine nested in another pull coroutine, both
// made and resumed from the caller, and counts each level's deferred call.
func twoDeep(fn func(), unwound map[string]int) {
	outer, stopOuter := iter.Pull(func(yield func(int) bool) {
		defer func() { unwound["outer"]++ }()
		inner, stopInner := iter.Pull(func(yield func(int) bool) {
			defer func() { unwound["inner"]++ }()
			fn()
			yield(2)
		})
		defer stopInner()
		inner()
		yield(1)
	})
	defer stopOuter()
	outer()
}

// goid names the calling goroutine.
func goid() string {
	buf := make([]byte, 64)
	return string(bytes.Fields(buf[:runtime.Stack(buf, false)])[1])
}

// TestNestedCoroutineWaitsResumeIt: from two levels down, the worker sleeps
// on a timer, calls another thread and waits for a posted wake.  Each wait
// parks the thread, and each grant must come back to the inner coroutine.
func TestNestedCoroutineWaitsResumeIt(t *testing.T) {
	onEachScheduler(t, func(t *testing.T, s *uthread.Scheduler, run func() error) {
		leakcheck.Check(t)
		unwound := map[string]int{}
		var waits []string
		server := s.Spawn("server", uthread.PriorityNormal, func(th *uthread.Thread, m uthread.Message) uthread.Disposition {
			th.Reply(m, "answer")
			return uthread.Terminate
		})
		worker := s.Spawn("worker", uthread.PriorityNormal, func(th *uthread.Thread, _ uthread.Message) uthread.Disposition {
			body := goid()
			twoDeep(func() {
				inner := goid()
				if inner == body {
					t.Errorf("the inner level runs on the body's goroutine %s", body)
				}
				resumed := func(wait string) {
					if g := goid(); g != inner {
						t.Errorf("after the %s, goroutine %s runs, want the inner coroutine's %s", wait, g, inner)
					}
					waits = append(waits, wait)
				}
				th.SleepFor(time.Millisecond)
				resumed("timer")
				if got := th.Call(server, uthread.Message{Kind: kindPing}).Data; got != "answer" {
					t.Errorf("Call answered %v", got)
				}
				resumed("call")
				th.ReceiveTagged(kindWake, 42)
				resumed("wake")
			}, unwound)
			return uthread.Terminate
		})
		waker := s.Spawn("waker", uthread.PriorityNormal, func(th *uthread.Thread, _ uthread.Message) uthread.Disposition {
			th.SleepFor(5 * time.Millisecond)
			s.Post(worker, uthread.Message{Kind: kindWake, Tag: 42})
			return uthread.Terminate
		})
		s.Post(worker, uthread.Message{Kind: kindPing})
		s.Post(waker, uthread.Message{Kind: kindPing})
		if err := run(); err != nil {
			t.Fatal(err)
		}
		if strings.Join(waits, ",") != "timer,call,wake" {
			t.Errorf("waits resumed: %v, want timer, call, wake", waits)
		}
		if unwound["inner"] != 1 || unwound["outer"] != 1 {
			t.Errorf("deferred calls ran %v, want once per level", unwound)
		}
	})
}

// TestStopUnwindsANestedCoroutine: a Stop while the inner coroutine is parked
// on a timer must unwind both levels and the body, each deferred call once,
// and leave no goroutine behind.
func TestStopUnwindsANestedCoroutine(t *testing.T) {
	onEachScheduler(t, func(t *testing.T, s *uthread.Scheduler, run func() error) {
		leakcheck.Check(t)
		unwound := map[string]int{}
		worker := s.Spawn("worker", uthread.PriorityNormal, func(th *uthread.Thread, _ uthread.Message) uthread.Disposition {
			defer func() { unwound["body"]++ }()
			twoDeep(func() {
				th.SleepFor(time.Hour)
				t.Error("the parked inner coroutine ran on after Stop")
			}, unwound)
			return uthread.Terminate
		})
		stopper := s.Spawn("stopper", uthread.PriorityNormal, func(th *uthread.Thread, _ uthread.Message) uthread.Disposition {
			th.SleepFor(time.Millisecond)
			s.Stop()
			return uthread.Terminate
		})
		s.Post(worker, uthread.Message{Kind: kindPing})
		s.Post(stopper, uthread.Message{Kind: kindPing})
		if err := run(); err != nil {
			t.Fatal(err)
		}
		for _, level := range []string{"inner", "outer", "body"} {
			if unwound[level] != 1 {
				t.Errorf("deferred call of the %s level ran %d times, want once (all: %v)", level, unwound[level], unwound)
			}
		}
	})
}

// TestPanicInANestedCoroutineNamesTheThread: a panic three frames down in the
// inner level fails Run with an error naming the thread, every level
// unwound once.
func TestPanicInANestedCoroutineNamesTheThread(t *testing.T) {
	onEachScheduler(t, func(t *testing.T, s *uthread.Scheduler, run func() error) {
		leakcheck.Check(t)
		unwound := map[string]int{}
		var deep func(n int)
		deep = func(n int) {
			if n == 0 {
				panic("boom")
			}
			deep(n - 1)
		}
		worker := s.Spawn("worker", uthread.PriorityNormal, func(th *uthread.Thread, _ uthread.Message) uthread.Disposition {
			twoDeep(func() {
				th.SleepFor(time.Millisecond) // resumed by Run's grant, then fail
				deep(3)
			}, unwound)
			return uthread.Terminate
		})
		s.Post(worker, uthread.Message{Kind: kindPing})
		err := run()
		if err == nil || !strings.Contains(err.Error(), `"worker"`) || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("Run = %v, want an error naming thread worker and its panic", err)
		}
		if unwound["inner"] != 1 || unwound["outer"] != 1 {
			t.Errorf("deferred calls ran %v, want once per level", unwound)
		}
	})
}
