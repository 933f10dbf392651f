package core

import (
	"fmt"
	"strings"

	"infopipes/internal/events"
	"infopipes/internal/typespec"
	"infopipes/internal/uthread"
)

// Placement records the planner's decision for one component: the mode its
// position imposes and whether it can be called directly or needs a
// coroutine (§3.3, Fig 9).
type Placement struct {
	Component string
	Style     Style
	Mode      Mode
	// Direct is true when the component is called as a plain function by
	// its neighbour nearer the pump; false when it gets its own coroutine.
	Direct bool
	// StageIndex is the position in the original stage list.
	StageIndex int
}

// String renders the placement like the paper's figure annotations.
func (pl Placement) String() string {
	how := "direct"
	if !pl.Direct {
		how = "coroutine"
	}
	return fmt.Sprintf("%s(%s,%s,%s)", pl.Component, pl.Style, pl.Mode, how)
}

// SectionPlan describes one pump-driven section: the span between two
// passive boundaries (buffers or the pipeline ends), which the pump's
// thread operates (§3.1: each pump has a thread that operates the pipeline
// as far as the next passive components up- and downstream).
type SectionPlan struct {
	// Pump names the section's activity source.
	Pump string
	// PumpStageIndex is the pump's position in the stage list.
	PumpStageIndex int
	// Upstream lists pull-mode components in boundary-to-pump order.
	Upstream []Placement
	// Downstream lists push-mode components in pump-to-boundary order.
	Downstream []Placement
	// UpBoundary / DownBoundary name the bounding buffers ("" at the
	// pipeline ends, where the source/sink components themselves are the
	// passive boundaries).
	UpBoundary, DownBoundary string
	// CoroutineSetSize is the number of synchronously interacting
	// coroutines in the section: the pump's plus one per coroutine
	// placement, all run by the section's one thread.  This is the
	// quantity Figure 9 tabulates (configs a,b,c = 1; d,g,h = 2; e,f = 3).
	CoroutineSetSize int
}

// Coroutines lists the components that received their own coroutine.
func (sp SectionPlan) Coroutines() []string {
	var out []string
	for _, pl := range sp.Upstream {
		if !pl.Direct {
			out = append(out, pl.Component)
		}
	}
	for _, pl := range sp.Downstream {
		if !pl.Direct {
			out = append(out, pl.Component)
		}
	}
	return out
}

// Plan is the complete activity analysis of a pipeline.
type Plan struct {
	Sections []SectionPlan
	// Specs[i] is the resolved Typespec of the flow leaving stage i.
	Specs []typespec.Typespec
}

// String renders the plan for diagnostics and the Fig 9 experiment table.
func (p Plan) String() string {
	var b strings.Builder
	for i, s := range p.Sections {
		fmt.Fprintf(&b, "section %d: pump=%s set=%d", i, s.Pump, s.CoroutineSetSize)
		for _, pl := range s.Upstream {
			fmt.Fprintf(&b, " %s", pl)
		}
		fmt.Fprintf(&b, " [%s]", s.Pump)
		for _, pl := range s.Downstream {
			fmt.Fprintf(&b, " %s", pl)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// needsCoroutine is the placement decision table of §3.3/Fig 9: in push
// mode, consumers and functions are called directly; in pull mode,
// producers and functions are called directly; otherwise a coroutine is
// required, and active objects always get one.
func needsCoroutine(style Style, mode Mode) bool {
	switch style {
	case StyleFunction:
		return false
	case StyleConsumer:
		return mode == PullMode
	case StyleProducer:
		return mode == PushMode
	case StyleActive:
		return true
	default:
		return true
	}
}

// composeCfg carries composition options.
type composeCfg struct {
	forceCoroutines bool
	skipEventCheck  bool
	inputSpec       typespec.Typespec
	schedClass      *uthread.SchedClass
}

// ComposeOption adjusts composition behaviour.
type ComposeOption func(*composeCfg)

// ForceCoroutines gives every component its own coroutine regardless of
// style and mode.  It exists for the ablation experiment (E8): the paper
// argues that introducing threads and coroutines only when necessary is
// what makes pipelines over many small items affordable.
func ForceCoroutines() ComposeOption {
	return func(c *composeCfg) { c.forceCoroutines = true }
}

// SkipEventCapabilityCheck disables the §2.3 check that locally-emitted
// control events have a handler in the pipeline.
func SkipEventCapabilityCheck() ComposeOption {
	return func(c *composeCfg) { c.skipEventCheck = true }
}

// WithInputSpec seeds Typespec propagation with the flow entering the
// pipeline's first stage.  The graph deployer uses it to carry the resolved
// spec across segment boundaries, so a branch pipeline starting at a tee
// port (or a shard/net link) still sees the trunk's flow properties (§2.3
// checking does not stop at the tee).
func WithInputSpec(ts typespec.Typespec) ComposeOption {
	return func(c *composeCfg) { c.inputSpec = ts }
}

// WithSchedClass spawns every thread of the pipeline — coroutines and pumps —
// into the given weighted-fair scheduling class, so the whole pipeline is
// charged to one tenant's virtual-time account.  nil (the default) leaves the
// pipeline in the scheduler's default class, preserving fairness-unaware
// scheduling exactly.
func WithSchedClass(class *uthread.SchedClass) ComposeOption {
	return func(c *composeCfg) { c.schedClass = class }
}

// LocalEventCapabilities is an optional Component extension declaring the
// local control events a component emits and handles, checked at
// composition so that the resulting pipeline is operational (§2.3).
type LocalEventCapabilities interface {
	SendsLocalEvents() []events.Type
	HandlesLocalEvents() []events.Type
}

// globalEventTypes are framework events always considered handled.
var globalEventTypes = map[events.Type]struct{}{
	events.Start: {}, events.Stop: {}, events.Pause: {}, events.Resume: {},
	events.EOS: {}, evNudge: {},
}

// planPipeline validates the stage list and performs the activity analysis.
func planPipeline(stages []Stage, cfg composeCfg) (Plan, error) {
	var plan Plan
	if len(stages) < 2 {
		return plan, fmt.Errorf("%w: need at least a source and a sink", ErrBadLayout)
	}
	// Structural validation of the ends.
	first, ok := stages[0].IsComponent()
	if !ok {
		return plan, fmt.Errorf("%w: first stage %q must be a source component", ErrBadLayout, stages[0].Name())
	}
	if first.Style() != StyleProducer && first.Style() != StyleActive {
		return plan, fmt.Errorf("%w: source %q must be producer- or active-style, got %s",
			ErrBadLayout, first.Name(), first.Style())
	}
	last, ok := stages[len(stages)-1].IsComponent()
	if !ok {
		return plan, fmt.Errorf("%w: last stage %q must be a sink component", ErrBadLayout, stages[len(stages)-1].Name())
	}
	if last.Style() != StyleConsumer && last.Style() != StyleActive {
		return plan, fmt.Errorf("%w: sink %q must be consumer- or active-style, got %s",
			ErrBadLayout, last.Name(), last.Style())
	}
	seen := make(map[string]struct{}, len(stages))
	for _, st := range stages {
		if _, dup := seen[st.Name()]; dup {
			return plan, fmt.Errorf("%w: duplicate stage name %q", ErrBadLayout, st.Name())
		}
		seen[st.Name()] = struct{}{}
	}

	// Split into sections at buffers and analyse each.
	type rawSection struct {
		stages     []Stage
		startIdx   int
		upBuf      Buffer
		downBuf    Buffer
		upBufName  string
		downBufIdx int
	}
	var sections []rawSection
	cur := rawSection{startIdx: 0}
	for i, st := range stages {
		if buf, isBuf := st.IsBuffer(); isBuf {
			if i == 0 || i == len(stages)-1 {
				return plan, fmt.Errorf("%w: buffer %q cannot be a pipeline end", ErrBadLayout, st.Name())
			}
			cur.downBuf = buf
			sections = append(sections, cur)
			cur = rawSection{startIdx: i + 1, upBuf: buf, upBufName: buf.Name()}
			continue
		}
		cur.stages = append(cur.stages, st)
	}
	sections = append(sections, cur)

	for _, raw := range sections {
		sp, err := planSection(raw.stages, raw.startIdx, raw.upBuf, raw.downBuf, cfg)
		if err != nil {
			return plan, err
		}
		sp.UpBoundary = raw.upBufName
		if raw.downBuf != nil {
			sp.DownBoundary = raw.downBuf.Name()
		}
		plan.Sections = append(plan.Sections, sp)
	}

	if !cfg.skipEventCheck {
		if err := checkEventCapabilities(stages); err != nil {
			return plan, err
		}
	}
	return plan, nil
}

// planSection analyses one buffer-to-buffer span.
func planSection(stages []Stage, startIdx int, upBuf, downBuf Buffer, cfg composeCfg) (SectionPlan, error) {
	var sp SectionPlan
	pumpPos := -1
	for i, st := range stages {
		if pump, isPump := st.IsPump(); isPump {
			if pumpPos >= 0 {
				return sp, fmt.Errorf("%w: pumps %q and %q", ErrTwoPumps, sp.Pump, pump.Name())
			}
			pumpPos = i
			sp.Pump = pump.Name()
			sp.PumpStageIndex = startIdx + i
		}
	}
	if pumpPos < 0 {
		names := make([]string, len(stages))
		for i, st := range stages {
			names[i] = st.Name()
		}
		return sp, fmt.Errorf("%w: section [%s]", ErrNoActivity, strings.Join(names, " "))
	}
	pump, _ := stages[pumpPos].IsPump()

	place := func(st Stage, idx int, mode Mode) (Placement, error) {
		comp, _ := st.IsComponent()
		pl := Placement{
			Component:  comp.Name(),
			Style:      comp.Style(),
			Mode:       mode,
			StageIndex: startIdx + idx,
		}
		pl.Direct = !needsCoroutine(pl.Style, mode) && !cfg.forceCoroutines
		if !pl.Direct && !comp.Wrappable() {
			return pl, fmt.Errorf("%w: %s-style component %q in %s mode",
				ErrUnwrappable, pl.Style, comp.Name(), mode)
		}
		return pl, nil
	}
	for i := 0; i < pumpPos; i++ {
		pl, err := place(stages[i], i, PullMode)
		if err != nil {
			return sp, err
		}
		sp.Upstream = append(sp.Upstream, pl)
	}
	for i := pumpPos + 1; i < len(stages); i++ {
		pl, err := place(stages[i], i, PushMode)
		if err != nil {
			return sp, err
		}
		sp.Downstream = append(sp.Downstream, pl)
	}

	sp.CoroutineSetSize = 1 + len(sp.Coroutines())

	// A free-running pump must have something that throttles it: reject
	// the configuration where both boundaries are non-blocking buffers.
	if pump.Class() == FreeRunning {
		upNB := upBuf != nil && func() bool { _, pull := upBuf.Spec(); return pull == typespec.NonBlock }()
		downNB := downBuf != nil && func() bool { push, _ := downBuf.Spec(); return push == typespec.NonBlock }()
		if (upBuf == nil || upNB) && (downBuf == nil || downNB) && upBuf != nil && downBuf != nil {
			return sp, fmt.Errorf("%w: free-running pump %q between non-blocking buffers would spin",
				ErrBadLayout, pump.Name())
		}
	}
	return sp, nil
}

// CheckEventCapabilities verifies that every locally-emitted control event
// type has at least one handler in the given stage set (§2.3) — the same
// check Compose applies per pipeline, exposed so the graph deployer can run
// it across all segments at once (an event emitted in one segment may be
// handled in another).
func CheckEventCapabilities(stages []Stage) error {
	return checkEventCapabilities(stages)
}

// EventCapabilitySets collects the local control events the stages emit and
// handle.  The remote node serves these over the §2.4 protocol so a cluster
// deployer can union them across nodes and run CheckEventCoverage before
// start — the graph-wide §2.3 check does not stop at a node boundary.
func EventCapabilitySets(stages []Stage) (sends, handles []events.Type) {
	for _, st := range stages {
		comp, ok := st.IsComponent()
		if !ok {
			continue
		}
		if caps, ok := comp.(LocalEventCapabilities); ok {
			sends = append(sends, caps.SendsLocalEvents()...)
			handles = append(handles, caps.HandlesLocalEvents()...)
		}
	}
	return sends, handles
}

// CheckEventCoverage verifies that every emitted control event type is
// either a framework event or appears among the handled types — the
// cross-node form of the §2.3 event-capability check, applied to capability
// sets gathered from remote segments.
func CheckEventCoverage(sends, handles []events.Type) error {
	handled := make(map[events.Type]struct{}, len(handles))
	for _, t := range handles {
		handled[t] = struct{}{}
	}
	for _, t := range sends {
		if _, global := globalEventTypes[t]; global {
			continue
		}
		if _, ok := handled[t]; !ok {
			return fmt.Errorf("%w: an event of type %q is emitted but no stage in the graph handles it",
				ErrEventCapability, t)
		}
	}
	return nil
}

// checkEventCapabilities verifies that every locally-emitted control event
// type has at least one handler elsewhere in the pipeline (§2.3).  The
// coverage rule is CheckEventCoverage's; this wrapper only restores the
// per-component attribution in the error message.
func checkEventCapabilities(stages []Stage) error {
	_, handles := EventCapabilitySets(stages)
	for _, st := range stages {
		comp, ok := st.IsComponent()
		if !ok {
			continue
		}
		caps, ok := comp.(LocalEventCapabilities)
		if !ok {
			continue
		}
		if err := CheckEventCoverage(caps.SendsLocalEvents(), handles); err != nil {
			return fmt.Errorf("component %q: %w", comp.Name(), err)
		}
	}
	return nil
}
