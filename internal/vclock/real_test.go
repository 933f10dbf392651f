package vclock_test

import (
	"net"
	"slices"
	"testing"
	"time"

	"infopipes/internal/vclock"
)

// netpollerUp opens a loopback listener for the length of the test.  Every
// real deployment has a socket or a file open, and that changes how an idle
// Go process sleeps: in epoll_wait, whose timeout the runtime rounds up to
// whole milliseconds.  Without it the timing tests would measure a process
// no user runs.
func netpollerUp(t *testing.T) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { l.Close() })
}

func median(d []time.Duration) time.Duration {
	slices.Sort(d)
	return d[len(d)/2]
}

func TestRealWaitUntilPastDeadline(t *testing.T) {
	netpollerUp(t)
	start := time.Now()
	if !(vclock.Real{}).WaitUntil(start.Add(-time.Second), make(chan struct{})) {
		t.Fatal("WaitUntil(past) = false, want true")
	}
	if el := time.Since(start); el > 50*time.Millisecond {
		t.Fatalf("WaitUntil(past) blocked for %v", el)
	}
}

// TestRealWaitUntilPendingWake: TimerAt signals the wake channel on every
// push, so the scheduler's next wait usually starts with a token in it.
func TestRealWaitUntilPendingWake(t *testing.T) {
	netpollerUp(t)
	wake := make(chan struct{}, 1)
	wake <- struct{}{}
	start := time.Now()
	if (vclock.Real{}).WaitUntil(start.Add(time.Second), wake) {
		t.Fatal("WaitUntil = true, want false with a wake pending")
	}
	if el := time.Since(start); el > 50*time.Millisecond {
		t.Fatalf("WaitUntil slept %v before seeing a wake that was already there", el)
	}
}

func TestRealWaitUntilNilWake(t *testing.T) {
	netpollerUp(t)
	start := time.Now()
	if !(vclock.Real{}).WaitUntil(start.Add(2*time.Millisecond), nil) {
		t.Fatal("WaitUntil = false, want true: a nil wake cannot interrupt")
	}
	if time.Since(start) < 2*time.Millisecond {
		t.Fatal("WaitUntil returned before the deadline")
	}
}

// TestRealWaitUntilWakeMidWait: a post to a scheduler that is waiting for a
// timer must get through promptly wherever in the wait it lands — long
// before the deadline, and in its last few hundred microseconds.
func TestRealWaitUntilWakeMidWait(t *testing.T) {
	netpollerUp(t)
	for _, c := range []struct {
		name        string
		wait, after time.Duration
	}{
		{"far from the deadline", 50 * time.Millisecond, 3 * time.Millisecond},
		{"close to the deadline", 3 * time.Millisecond, 2700 * time.Microsecond},
	} {
		var lat []time.Duration
		for i := 0; i < 21; i++ {
			wake := make(chan struct{}, 1)
			sent := make(chan time.Time, 1)
			start := time.Now()
			go func() {
				// Spin to the instant: a sleep would be as coarse as the
				// timers under test.
				for time.Since(start) < c.after {
				}
				sent <- time.Now()
				wake <- struct{}{}
			}()
			reached := (vclock.Real{}).WaitUntil(start.Add(c.wait), wake)
			returned := time.Now()
			if s := <-sent; !reached {
				lat = append(lat, returned.Sub(s))
			}
			// reached: the sender was scheduled late, past the deadline.
		}
		if len(lat) < 11 {
			t.Fatalf("%s: only %d of 21 wakes landed inside the wait", c.name, len(lat))
		}
		m := median(lat)
		t.Logf("%s: median wake-to-return %v over %d wakes", c.name, m, len(lat))
		if m > 500*time.Microsecond {
			t.Errorf("%s: median wake-to-return %v, want < 500us", c.name, m)
		}
	}
}
