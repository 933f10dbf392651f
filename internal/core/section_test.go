package core

import (
	"fmt"
	"testing"
	"time"

	"infopipes/internal/events"
	"infopipes/internal/uthread"
)

// styled is a component that only declares a style: enough to compose.
type styled struct {
	Base
	style Style
}

func (c styled) Style() Style { return c.style }

// freePump is the least pump that composes.
type freePump struct{}

func (freePump) Name() string                          { return "pump" }
func (freePump) Class() PumpClass                      { return FreeRunning }
func (freePump) Next(now time.Time, _ int64) time.Time { return now }
func (freePump) Priority() uthread.Priority            { return uthread.PriorityNormal }
func (freePump) HandleEvent(events.Event)              {}

// TestOneThreadPerSection: every Fig 9 configuration composes exactly one
// thread for its section, which every placement runs on, while the
// coroutine set keeps the size the paper gives it.
func TestOneThreadPerSection(t *testing.T) {
	const (
		fn  = StyleFunction
		con = StyleConsumer
		pro = StyleProducer
		act = StyleActive
	)
	configs := []struct {
		name     string
		up, down []Style
		set      int
	}{
		{"a", []Style{pro}, []Style{con}, 1},
		{"b", []Style{fn}, []Style{fn}, 1},
		{"c", nil, []Style{con, con}, 1},
		{"d", []Style{act}, []Style{fn}, 2},
		{"e", []Style{con}, []Style{pro}, 3},
		{"f", []Style{act}, []Style{act}, 3},
		{"g", nil, []Style{con, act}, 2},
		{"h", nil, []Style{con, pro}, 2},
	}
	for _, cfg := range configs {
		comp := func(name string, s Style) Stage { return Comp(styled{Base{CompName: name}, s}) }
		stages := []Stage{comp("src", pro)}
		for i, s := range cfg.up {
			stages = append(stages, comp(fmt.Sprint("up", i), s))
		}
		stages = append(stages, Pmp(freePump{}))
		for i, s := range cfg.down {
			stages = append(stages, comp(fmt.Sprint("down", i), s))
		}
		stages = append(stages, comp("sink", con))

		sched := uthread.New()
		p, err := Compose(cfg.name, sched, nil, stages)
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		if len(p.sections) != 1 || p.liveThreads != 1 || len(p.subs) != 1 {
			t.Errorf("%s: %d sections, %d live threads, %d bus subscriptions; want one of each",
				cfg.name, len(p.sections), p.liveThreads, len(p.subs))
		}
		s := p.sections[0]
		for name, rt := range p.placements {
			if rt.ctx.thread != s.thread {
				t.Errorf("%s: %s runs on thread %v, want the section's %v", cfg.name, name, rt.ctx.thread, s.thread)
			}
		}
		if got := p.plan.Sections[0].CoroutineSetSize; got != cfg.set || len(s.coros) != cfg.set-1 {
			t.Errorf("%s: coroutine set %d with %d coroutines besides the pump's, want %d", cfg.name, got, len(s.coros), cfg.set)
		}
		sched.Stop()
		if err := sched.Run(); err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
	}
}
