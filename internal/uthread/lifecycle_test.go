package uthread_test

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"infopipes/internal/leakcheck"
	"infopipes/internal/shard"
	"infopipes/internal/uthread"
)

// The life of a coroutine-backed thread: it costs nothing until it is first
// granted, a failure in it surfaces from Run with every other thread unwound,
// a Stop from outside ends a scheduler that never idles, and the coroutine
// is made where the runtime allows it to be resumed.

const (
	kindPing = uthread.KindUserBase + 100 + iota
	kindQuit
)

// TestSpawnAndStopCostNoGoroutine: a thread is a coroutine only once Run has
// granted it, so spawning into a scheduler that never runs, and stopping
// one, start nothing.
func TestSpawnAndStopCostNoGoroutine(t *testing.T) {
	base := leakcheck.AtRest()
	s := uthread.New()
	idle := func(*uthread.Thread, uthread.Message) uthread.Disposition { return uthread.Continue }
	for i := 0; i < 100; i++ {
		s.Post(s.Spawn("idle", uthread.PriorityNormal, idle), uthread.Message{Kind: kindPing})
	}
	if n := leakcheck.Live(); n > base {
		t.Fatalf("100 spawned threads with mail, no Run: %d goroutines, %d before", n, base)
	}
	s.Stop()
	if n := leakcheck.Live(); n > base {
		t.Fatalf("Stop on a scheduler that never ran: %d goroutines, %d before", n, base)
	}
}

// TestPanicInNestedCallUnwindsEveryThread: a calls b, b calls c, and c's code
// function panics three frames down.  Run must return an error naming c, and
// by then every thread parked at the time — the two callers and a bystander
// — must have run its deferred function, once.
func TestPanicInNestedCallUnwindsEveryThread(t *testing.T) {
	leakcheck.Check(t)
	s := uthread.New()
	unwound := map[string]int{}
	var deep func(n int)
	deep = func(n int) {
		if n == 0 {
			panic("boom")
		}
		deep(n - 1)
	}
	c := s.Spawn("c", uthread.PriorityNormal, func(*uthread.Thread, uthread.Message) uthread.Disposition {
		defer func() { unwound["c"]++ }()
		deep(3)
		return uthread.Continue
	})
	b := s.Spawn("b", uthread.PriorityNormal, func(t *uthread.Thread, m uthread.Message) uthread.Disposition {
		defer func() { unwound["b"]++ }()
		t.Reply(m, t.Call(c, uthread.Message{Kind: kindPing}).Data)
		return uthread.Continue
	})
	a := s.Spawn("a", uthread.PriorityNormal, func(t *uthread.Thread, _ uthread.Message) uthread.Disposition {
		defer func() { unwound["a"]++ }()
		t.Call(b, uthread.Message{Kind: kindPing})
		return uthread.Terminate
	})
	bystander := s.Spawn("bystander", uthread.PriorityNormal, func(t *uthread.Thread, _ uthread.Message) uthread.Disposition {
		defer func() { unwound["bystander"]++ }()
		t.ReceiveMatch(func(m uthread.Message) bool { return m.Kind == kindQuit })
		return uthread.Terminate
	})
	s.Post(bystander, uthread.Message{Kind: kindPing})
	s.Post(a, uthread.Message{Kind: kindPing})
	err := s.Run()
	if err == nil || !strings.Contains(err.Error(), `"c"`) || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Run = %v, want an error naming thread c and its panic", err)
	}
	for _, name := range []string{"a", "b", "c", "bystander"} {
		if unwound[name] != 1 {
			t.Errorf("deferred function of %s ran %d times before Run returned, want once (all: %v)", name, unwound[name], unwound)
		}
	}
}

// TestGoexitInACodeFunctionEndsRun: a runtime.Goexit in a code function (what
// a t.Fatal there amounts to) passes to the goroutine in Run.  The scheduler
// must still shut down — the parked thread unwound — and a caller waiting on
// RunBackground must be told, not left waiting.
func TestGoexitInACodeFunctionEndsRun(t *testing.T) {
	leakcheck.Check(t)
	s := uthread.New()
	unwound := false
	parked := s.Spawn("parked", uthread.PriorityNormal, func(t *uthread.Thread, _ uthread.Message) uthread.Disposition {
		defer func() { unwound = true }()
		t.ReceiveMatch(func(m uthread.Message) bool { return m.Kind == kindQuit })
		return uthread.Terminate
	})
	quitter := s.Spawn("quitter", uthread.PriorityNormal, func(*uthread.Thread, uthread.Message) uthread.Disposition {
		runtime.Goexit()
		return uthread.Terminate
	})
	s.Post(parked, uthread.Message{Kind: kindPing})
	s.Post(quitter, uthread.Message{Kind: kindPing})
	select {
	case err := <-s.RunBackground():
		if err == nil || !strings.Contains(err.Error(), "Goexit") {
			t.Fatalf("RunBackground = %v, want the Goexit error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunBackground never reported")
	}
	if !unwound {
		t.Fatal("the parked thread's deferred function did not run")
	}
}

// TestStopFromOutsideEndsABusyScheduler: two threads call each other without
// end, so the scheduler never idles and, on one P, never gives the P up; a
// Stop from outside must still end Run promptly.  The switch no longer goes
// through the Go scheduler, so nothing but the runtime's preemption lets
// the outside goroutine in.
func TestStopFromOutsideEndsABusyScheduler(t *testing.T) {
	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			leakcheck.Check(t)
			s := uthread.New()
			var rounds atomic.Int64
			server := s.Spawn("server", uthread.PriorityNormal, func(t *uthread.Thread, m uthread.Message) uthread.Disposition {
				t.Reply(m, nil)
				return uthread.Continue
			})
			client := s.Spawn("client", uthread.PriorityNormal, func(t *uthread.Thread, _ uthread.Message) uthread.Disposition {
				for {
					t.Call(server, uthread.Message{Kind: kindPing})
					rounds.Add(1)
				}
			})
			s.Post(client, uthread.Message{Kind: kindPing})
			done := s.RunBackground()
			for rounds.Load() < 1000 {
				time.Sleep(100 * time.Microsecond)
			}
			s.Stop()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("GOMAXPROCS %d: Run = %v after Stop", procs, err)
				}
			case <-time.After(time.Second):
				t.Fatalf("GOMAXPROCS %d: Run still going 1 s after Stop (%d rounds)", procs, rounds.Load())
			}
		}()
	}
}

// TestPinnedShardGrantsThreadsSpawnedOutside: a pinned shard's Run is locked
// to its OS thread, and the runtime refuses — fatally — to resume a coroutine
// from a goroutine whose thread lock differs from its maker's.  Threads are
// spawned from this unlocked goroutine, before the shard starts and while it
// runs; each must be granted and terminate, so each coroutine was made on
// Run's goroutine, not here.
func TestPinnedShardGrantsThreadsSpawnedOutside(t *testing.T) {
	leakcheck.Check(t)
	g := shard.NewGroup(shard.WithShardCount(1), shard.WithPinnedShards())
	s := g.Scheduler(0)
	s.AddExternalSource() // keep the shard alive between the two threads
	once := func(*uthread.Thread, uthread.Message) uthread.Disposition { return uthread.Terminate }
	gone := func(th *uthread.Thread) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !th.Terminated() {
			if time.Now().After(deadline) {
				t.Fatalf("thread %s was never granted", th.Name())
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	early := s.Spawn("early", uthread.PriorityNormal, once)
	s.Post(early, uthread.Message{Kind: kindPing})
	g.Start()
	gone(early)
	late := s.Spawn("late", uthread.PriorityNormal, once)
	s.Post(late, uthread.Message{Kind: kindPing})
	gone(late)
	s.ReleaseExternalSource()
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestReplyAnswersOnlyACall: Message.Tag numbers a Call, but also carries a
// timer's token and a poster's wake token, and a thread numbers its own
// Calls from one.  So Reply must answer only what is a Call
// — an application message with a sender and a number — and Send must not
// pass a received Call's number on.
func TestReplyAnswersOnlyACall(t *testing.T) {
	t.Run("a forwarded Call is not a Call", func(t *testing.T) {
		s := uthread.New()
		// a calls b (a's call 1).  b forwards the request to c, then calls d
		// (b's call 1).  c answers what it was sent: were the number still
		// on it, b would take c's answer for d's.
		d := s.Spawn("d", uthread.PriorityNormal, func(t *uthread.Thread, m uthread.Message) uthread.Disposition {
			t.Reply(m, "d")
			return uthread.Terminate
		})
		c := s.Spawn("c", uthread.PriorityNormal, func(t *uthread.Thread, m uthread.Message) uthread.Disposition {
			t.Reply(m, "not asked")
			return uthread.Terminate
		})
		b := s.Spawn("b", uthread.PriorityNormal, func(t *uthread.Thread, m uthread.Message) uthread.Disposition {
			t.Send(c, m)
			got := t.Call(d, uthread.Message{Kind: kindPing}).Data.(string)
			t.Reply(m, "b:"+got)
			return uthread.Terminate
		})
		var got any
		a := s.Spawn("a", uthread.PriorityNormal, func(t *uthread.Thread, _ uthread.Message) uthread.Disposition {
			got = t.Call(b, uthread.Message{Kind: kindPing}).Data
			return uthread.Terminate
		})
		s.Post(a, uthread.Message{Kind: kindPing})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if got != "b:d" {
			t.Fatalf("a's Call returned %v, want b:d", got)
		}
	})
	t.Run("a timer and a posted reply are not Calls", func(t *testing.T) {
		s := uthread.New()
		var stray []uthread.Message
		sender := s.Spawn("sender", uthread.PriorityNormal, func(t *uthread.Thread, _ uthread.Message) uthread.Disposition {
			t.SleepFor(time.Second) // the receiver is done long before
			for {
				m, ok := t.TryReceive(nil)
				if !ok {
					return uthread.Terminate
				}
				stray = append(stray, m)
			}
		})
		receiver := s.Spawn("receiver", uthread.PriorityNormal, func(t *uthread.Thread, m uthread.Message) uthread.Disposition {
			if m.Kind == uthread.KindTimer { // Tag the timer's token
				t.Reply(m, "not asked")
				return uthread.Terminate
			}
			// Posted from outside below: a runtime kind with a Tag and a sender.
			t.Reply(m, "not asked")
			s.TimerAfter(time.Millisecond, t)
			return uthread.Continue
		})
		s.Post(receiver, uthread.Message{Kind: uthread.KindReply, From: sender, Tag: 7})
		s.Post(sender, uthread.Message{Kind: kindPing})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if len(stray) != 0 {
			t.Fatalf("the sender was sent %d messages it never asked for: %+v", len(stray), stray)
		}
	})
}
