//go:build linux

package pipes_test

import (
	"net"
	"slices"
	"testing"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/pipes"
	"infopipes/internal/uthread"
	"infopipes/internal/vclock"
)

// TestClockedPumpKeepsItsPeriodOnTheRealClock is the flow-level face of the
// real clock's precision: "clock-driven pumps operate at a constant rate"
// (§3.1).  When the clock could only wake on the runtime's 1 ms idle tick, a
// 5 kHz pump ran five cycles back to back once a millisecond — the median gap
// between consecutive items was about 0 and the median item about half a
// millisecond late.  The listener is there because every deployment has a
// descriptor open, and the tick only exists once the netpoller is up.
func TestClockedPumpKeepsItsPeriodOnTheRealClock(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer l.Close()

	const (
		n      = 500
		rate   = 5000
		period = time.Second / rate
	)
	sched := uthread.New(uthread.WithClock(vclock.Real{}))
	sink := pipes.NewCollectSink("sink")
	p, err := core.Compose("paced", sched, nil, []core.Stage{
		core.Comp(pipes.NewCounterSource("src", n)),
		core.Pmp(pipes.NewClockedPump("pump", rate)),
		core.Comp(sink),
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	items := sink.Items()
	if len(items) != n {
		t.Fatalf("delivered %d items, want %d", len(items), n)
	}

	// The pump anchors its schedule at its first cycle, which is when the
	// first item is created: item i is due i periods later.
	first := items[0].Created
	late := make([]time.Duration, 0, n-1)
	gaps := make([]time.Duration, 0, n-1)
	for i := 1; i < n; i++ {
		late = append(late, items[i].Created.Sub(first.Add(time.Duration(i)*period)))
		gaps = append(gaps, items[i].Created.Sub(items[i-1].Created))
	}
	slices.Sort(late)
	slices.Sort(gaps)
	lateMed, gapMed := late[len(late)/2], gaps[len(gaps)/2]
	t.Logf("median lateness %v, median gap %v (period %v)", lateMed, gapMed, period)
	if lateMed > 400*time.Microsecond {
		t.Errorf("median item is created %v after it was due, want < 400us", lateMed)
	}
	if gapMed < period/2 || gapMed > period*3/2 {
		t.Errorf("median gap between consecutive items is %v, want within 50%% of the %v period", gapMed, period)
	}
}
