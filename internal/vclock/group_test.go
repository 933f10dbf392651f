package vclock

import (
	"testing"
	"time"
)

// waitResult carries one member's WaitUntil return.
type waitResult struct {
	reached bool
	at      time.Time
}

func waitAsync(g *GroupVirtual, m *GroupMember, t time.Time, wake <-chan struct{}) <-chan waitResult {
	ch := make(chan waitResult, 1)
	go func() {
		ok := m.WaitUntil(t, wake)
		ch <- waitResult{reached: ok, at: g.Now()}
	}()
	return ch
}

// pollIdle blocks until the member is registered idle (test-only spin).
func pollIdle(t *testing.T, g *GroupVirtual, m *GroupMember) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		g.mu.Lock()
		idle := m.idle
		g.mu.Unlock()
		if idle {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("member never went idle")
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func TestGroupAdvancesToMinimumDeadline(t *testing.T) {
	g := NewGroupVirtual()
	a, b := g.Member(), g.Member()
	t1 := Epoch.Add(10 * time.Millisecond)
	t2 := Epoch.Add(20 * time.Millisecond)

	wakeB := make(chan struct{}, 1)
	resB := waitAsync(g, b, t2, wakeB)
	pollIdle(t, g, b)
	// b alone must not advance anything while a is busy.
	if got := g.Now(); !got.Equal(Epoch) {
		t.Fatalf("clock moved to %v with a member still busy", got)
	}

	// a goes idle with the earlier deadline: the group advances to t1 only.
	if ok := a.WaitUntil(t1, nil); !ok {
		t.Fatal("a.WaitUntil returned interrupted")
	}
	if got := g.Now(); !got.Equal(t1) {
		t.Fatalf("clock = %v, want minimum deadline %v", got, t1)
	}
	select {
	case r := <-resB:
		t.Fatalf("b released early at %v (reached=%v), deadline %v", r.at, r.reached, t2)
	default:
	}

	// a idles again with a later deadline: now b's t2 is the minimum.
	resA := waitAsync(g, a, Epoch.Add(30*time.Millisecond), nil)
	r := <-resB
	if !r.reached || !r.at.Equal(t2) {
		t.Fatalf("b woke reached=%v at %v, want true at %v", r.reached, r.at, t2)
	}
	// b leaves; a's own deadline becomes the minimum.
	b.Leave()
	ra := <-resA
	if !ra.reached || !ra.at.Equal(Epoch.Add(30*time.Millisecond)) {
		t.Fatalf("a woke reached=%v at %v", ra.reached, ra.at)
	}
}

// signalWake mimics the scheduler's wake path: the group hears about the
// wake (NotifyWake) strictly before the channel signal exists.
func signalWake(m *GroupMember, wake chan struct{}) {
	m.NotifyWake()
	select {
	case wake <- struct{}{}:
	default:
	}
}

// TestGroupPendingWakeVetoesAdvance: a wake announced through NotifyWake
// before a peer's registration DETERMINISTICALLY vetoes the advance — the
// member is released as interrupted and the clock does not move, no matter
// which party wins the race for the wake channel itself.
func TestGroupPendingWakeVetoesAdvance(t *testing.T) {
	t1 := Epoch.Add(10 * time.Millisecond)
	t2 := Epoch.Add(20 * time.Millisecond)
	for run := 0; run < 50; run++ {
		g := NewGroupVirtual()
		a, b := g.Member(), g.Member()
		wakeA := make(chan struct{}, 1)

		resA := waitAsync(g, a, t1, wakeA)
		pollIdle(t, g, a)
		// A cross-scheduler post lands for a: flag first, then signal.
		signalWake(a, wakeA)
		resB := waitAsync(g, b, t2, nil)

		r := <-resA
		if r.reached {
			t.Fatalf("run %d: a reported deadline reached despite announced wake", run)
		}
		if got := g.Now(); !got.Equal(Epoch) {
			t.Fatalf("run %d: clock advanced to %v past an announced wake (time travel)", run, got)
		}
		select {
		case rb := <-resB:
			t.Fatalf("run %d: b released early at %v (reached=%v), deadline %v", run, rb.at, rb.reached, t2)
		default:
		}
		// a re-idles with no deadline: b's t2 is now the group minimum.
		go a.WaitIdle(wakeA)
		rb := <-resB
		if !rb.reached || !rb.at.Equal(t2) {
			t.Fatalf("run %d: b woke reached=%v at %v, want true at %v", run, rb.reached, rb.at, t2)
		}
		signalWake(a, wakeA) // release the WaitIdle
	}
}

// TestGroupWaitIdleVetoesAdvance covers the deadline-free waiter (a
// scheduler idle on external sources): an announced wake must prevent the
// peers from advancing past the instant the work arrived — the lost-veto
// variant where the waiter's own select races the group for the signal.
func TestGroupWaitIdleVetoesAdvance(t *testing.T) {
	t2 := Epoch.Add(20 * time.Millisecond)
	for run := 0; run < 50; run++ {
		g := NewGroupVirtual()
		r, s := g.Member(), g.Member()
		wakeR := make(chan struct{}, 1)

		idleDone := make(chan time.Time, 1)
		go func() {
			r.WaitIdle(wakeR)
			idleDone <- g.Now()
		}()
		pollIdle(t, g, r)
		// Cross-shard delivery for r, then s registers its deadline.
		signalWake(r, wakeR)
		resS := waitAsync(g, s, t2, nil)

		// r must come back at the current instant, before any advance.
		at := <-idleDone
		if !at.Equal(Epoch) {
			t.Fatalf("run %d: WaitIdle returned at %v, want %v (advance slipped past pending work)", run, at, Epoch)
		}
		select {
		case rs := <-resS:
			t.Fatalf("run %d: s released at %v while r's work was pending", run, rs.at)
		default:
		}
		// r goes idle again with nothing pending: s may now advance.
		go func() {
			r.WaitIdle(wakeR)
			idleDone <- g.Now()
		}()
		rs := <-resS
		if !rs.reached || !rs.at.Equal(t2) {
			t.Fatalf("run %d: s woke reached=%v at %v, want true at %v", run, rs.reached, rs.at, t2)
		}
		signalWake(r, wakeR)
		<-idleDone
	}
}

func TestGroupSameDeadlineWakesAll(t *testing.T) {
	g := NewGroupVirtual()
	a, b := g.Member(), g.Member()
	at := Epoch.Add(5 * time.Millisecond)
	resA := waitAsync(g, a, at, nil)
	resB := waitAsync(g, b, at, nil)
	ra, rb := <-resA, <-resB
	if !ra.reached || !rb.reached {
		t.Fatalf("reached = %v/%v, want true/true", ra.reached, rb.reached)
	}
	if !g.Now().Equal(at) {
		t.Fatalf("clock = %v, want %v", g.Now(), at)
	}
}

// TestGroupHoldDefersAdvance: with every member idle and a deadline pending,
// a held clock stays where it is — holds nest — and the last Release makes
// the advance the hold deferred.
func TestGroupHoldDefersAdvance(t *testing.T) {
	g := NewGroupVirtual()
	a, b := g.Member(), g.Member()
	at := Epoch.Add(5 * time.Millisecond)
	g.Hold()
	g.Hold()
	resA := waitAsync(g, a, at, nil)
	resB := waitAsync(g, b, at, nil)
	pollIdle(t, g, a)
	pollIdle(t, g, b)
	g.Release()
	select {
	case r := <-resA:
		t.Fatalf("a woke (reached=%v at %v) while the clock was held", r.reached, r.at)
	case <-time.After(5 * time.Millisecond):
	}
	if got := g.Now(); !got.Equal(Epoch) {
		t.Fatalf("clock moved to %v while held", got)
	}
	g.Release()
	if ra, rb := <-resA, <-resB; !ra.reached || !rb.reached || !g.Now().Equal(at) {
		t.Fatalf("after Release: reached %v/%v at %v, want true/true at %v", ra.reached, rb.reached, g.Now(), at)
	}
}

func TestGroupMemberBindRefusesSecondOwner(t *testing.T) {
	g := NewGroupVirtual()
	m := g.Member()
	if err := m.Bind("sched1"); err != nil {
		t.Fatalf("first Bind: %v", err)
	}
	if err := m.Bind("sched2"); err == nil {
		t.Fatal("second Bind succeeded, want refusal")
	}
	m.Unbind("sched1")
	if err := m.Bind("sched1"); err == nil {
		t.Fatal("Bind after Unbind (left group) succeeded, want ErrMemberLeft")
	}
	if g.Members() != 0 {
		t.Fatalf("Members = %d after unbind, want 0", g.Members())
	}
}

func TestVirtualBindRefusesConcurrentSharing(t *testing.T) {
	v := NewVirtual()
	if err := v.Bind("sched1"); err != nil {
		t.Fatalf("first Bind: %v", err)
	}
	if err := v.Bind("sched1"); err != nil {
		t.Fatalf("re-Bind by same owner: %v", err)
	}
	if err := v.Bind("sched2"); err == nil {
		t.Fatal("concurrent second owner accepted, want ErrSharedVirtual")
	}
	v.Unbind("sched1")
	if err := v.Bind("sched2"); err != nil {
		t.Fatalf("sequential reuse after Unbind: %v", err)
	}
}

// TestAtRunsBeforeAMemberDueAtTheSameInstant: an appointment and a deadline
// at one instant — the appointment goes first, under a hold, and the member
// is released only when it has returned.
func TestAtRunsBeforeAMemberDueAtTheSameInstant(t *testing.T) {
	g := NewGroupVirtual()
	m := g.Member()
	at := Epoch.Add(10 * time.Millisecond)
	ran, proceed := make(chan time.Time), make(chan struct{})
	g.At(at, func() {
		ran <- g.Now()
		<-proceed
	})
	res := waitAsync(g, m, at, nil)
	if now := <-ran; !now.Equal(at) {
		t.Fatalf("appointment ran at %v, want %v", now, at)
	}
	select {
	case r := <-res:
		t.Fatalf("member released (reached=%v at %v) while the appointment was still running", r.reached, r.at)
	case <-time.After(20 * time.Millisecond):
	}
	close(proceed)
	if r := <-res; !r.reached || !r.at.Equal(at) {
		t.Fatalf("member woke reached=%v at %v, want true at %v", r.reached, r.at, at)
	}
}

// TestAtKeepsOrderAndNeverMovesTimeBack: appointments run by instant and FIFO
// among equals, one behind a member deadline waits for it, and one booked
// for an instant already past runs at the next decision where the clock is.
func TestAtKeepsOrderAndNeverMovesTimeBack(t *testing.T) {
	g := NewGroupVirtual()
	m := g.Member()
	type run struct {
		name string
		now  time.Time
	}
	runs := make(chan run, 4)
	book := func(name string, at time.Time) {
		g.At(at, func() { runs <- run{name, g.Now()} })
	}
	t10, t20, t30 := Epoch.Add(10*time.Millisecond), Epoch.Add(20*time.Millisecond), Epoch.Add(30*time.Millisecond)
	book("late", t30)
	book("first", t10)
	book("second", t10)
	if !m.WaitUntil(t20, nil) {
		t.Fatal("WaitUntil returned interrupted")
	}
	for _, want := range []string{"first", "second"} {
		if r := <-runs; r.name != want || !r.now.Equal(t10) {
			t.Fatalf("ran %q at %v, want %q at %v", r.name, r.now, want, t10)
		}
	}
	select {
	case r := <-runs:
		t.Fatalf("%q ran at %v, ahead of the member deadline before it", r.name, r.now)
	default:
	}
	book("past", Epoch)
	res := waitAsync(g, m, Epoch.Add(40*time.Millisecond), nil)
	if r := <-runs; r.name != "past" || !r.now.Equal(t20) {
		t.Fatalf("ran %q at %v, want \"past\" at %v (time must not move back)", r.name, r.now, t20)
	}
	if r := <-runs; r.name != "late" || !r.now.Equal(t30) {
		t.Fatalf("ran %q at %v, want \"late\" at %v", r.name, r.now, t30)
	}
	if r := <-res; !r.reached {
		t.Fatal("member was interrupted")
	}
}

// TestAtWaitsForHoldsAndPendingWakes: no appointment runs while an external
// actor holds the clock or a member has work announced at the current instant.
func TestAtWaitsForHoldsAndPendingWakes(t *testing.T) {
	g := NewGroupVirtual()
	m := g.Member()
	ran := make(chan struct{}, 1)
	notYet := func(why string) {
		t.Helper()
		select {
		case <-ran:
			t.Fatalf("appointment ran %s", why)
		case <-time.After(20 * time.Millisecond):
		}
	}

	g.Hold()
	g.At(Epoch.Add(time.Millisecond), func() { ran <- struct{}{} })
	wake := make(chan struct{}, 1)
	res := waitAsync(g, m, Epoch.Add(time.Second), wake)
	pollIdle(t, g, m)
	notYet("under a hold")

	// A wake announced but not yet sent: the member is about to deregister.
	m.NotifyWake()
	g.Release()
	notYet("with a wake pending")
	wake <- struct{}{}
	if r := <-res; r.reached {
		t.Fatal("the woken member reached its deadline")
	}
	res = waitAsync(g, m, Epoch.Add(time.Second), wake)
	<-ran
	if r := <-res; !r.reached {
		t.Fatal("member was interrupted")
	}
}
