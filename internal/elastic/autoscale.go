package elastic

import (
	"fmt"
	"sync"

	"infopipes/internal/control"
	"infopipes/internal/core"
	"infopipes/internal/graph"
)

// Policy declares how one stage scales.  The Autoscaler watches the
// deployment's item rate; when it exceeds what one replica comfortably
// handles, the stage is put behind an auto-inserted elastic route-split
// (graph.ScaleStage — deterministic (Seq-1)%active selector, order
// reconstructed by the merge, so traces stay seed-stable) and the active
// replica count then tracks load between Min and Max.
type Policy struct {
	// Stage is the node name of the hot stage.
	Stage string
	// Max is the replica ceiling — the declared width of the auto-inserted
	// split (must be >= 2).
	Max int
	// Min is the active-replica floor (default 1).  Fold-back never goes
	// below it.
	Min int
	// TargetPerTick is the item delta per Tick one replica is expected to
	// absorb; desired replicas = ceil(delta / TargetPerTick).
	TargetPerTick int64
	// Places optionally pins replica i to shard Places[i] (len Max).
	Places []int
	// Build constructs replica i for stages declared live (core.Comp);
	// spec-declared stages clone from the catalog and may leave it nil.
	Build func(i int) (core.Stage, error)
}

// Autoscaler turns load observations into replica counts for one
// deployment.  Tick is the observe/decide/act cycle: the caller (an
// operator loop, a test, a timer) decides the cadence, the autoscaler
// decides the width.  All scaling actions hold the cluster gate so they
// never race a failover or a drain moving the same segments.
type Autoscaler struct {
	// OnScale, when set, is called after every change of a stage's active
	// replica count.
	OnScale func(stage string, active int)

	d    *graph.Deployment
	gate sync.Locker

	mu       sync.Mutex
	policies []Policy
	last     int64
	primed   bool
}

// NewAutoscaler watches one deployment, serializing its actions on the
// cluster's gate (pass Cluster.Gate(), or any locker shared with the
// Supervisor).
func NewAutoscaler(d *graph.Deployment, gate sync.Locker) *Autoscaler {
	return &Autoscaler{d: d, gate: gate}
}

// Add registers a scaling policy.  Defaults: Min 1.
func (a *Autoscaler) Add(p Policy) error {
	if p.Stage == "" {
		return fmt.Errorf("elastic: autoscale policy needs a stage")
	}
	if p.Max < 2 {
		return fmt.Errorf("elastic: autoscale policy for %q: Max %d, need at least 2", p.Stage, p.Max)
	}
	if p.TargetPerTick <= 0 {
		return fmt.Errorf("elastic: autoscale policy for %q: TargetPerTick must be positive", p.Stage)
	}
	if p.Min < 1 {
		p.Min = 1
	}
	a.mu.Lock()
	a.policies = append(a.policies, p)
	a.mu.Unlock()
	return nil
}

// rate reads the deployment's trunk item rate: the max per-segment Items
// count.  Every item crosses the busiest trunk segment exactly once, so its
// delta between ticks is the stream rate regardless of how many branch
// segments a scaled stage fans into.
func (a *Autoscaler) rate() int64 {
	var max int64
	for _, seg := range a.d.Stats().Segments {
		if seg.Items > max {
			max = seg.Items
		}
	}
	return max
}

// Tick runs one observe/decide/act cycle and reports the active replica
// count chosen for each policy's stage (unchanged stages included).  The
// first Tick only primes the rate baseline and changes nothing.
func (a *Autoscaler) Tick() (out map[string]int, err error) {
	// One external action on the deployment's group: the scaling lands at
	// the instant the rate was read.
	a.d.External(func() { out, err = a.tick() })
	return out, err
}

func (a *Autoscaler) tick() (map[string]int, error) {
	now := a.rate()
	a.mu.Lock()
	delta := now - a.last
	a.last = now
	primed := a.primed
	a.primed = true
	policies := make([]Policy, len(a.policies))
	copy(policies, a.policies)
	a.mu.Unlock()
	if !primed {
		return nil, nil
	}

	out := make(map[string]int, len(policies))
	for _, p := range policies {
		active, err := a.apply(p, delta)
		if err != nil {
			return out, err
		}
		out[p.Stage] = active
	}
	return out, nil
}

// apply moves one stage to its desired width under the gate.
func (a *Autoscaler) apply(p Policy, delta int64) (int, error) {
	desired := int((delta + p.TargetPerTick - 1) / p.TargetPerTick)
	if desired < p.Min {
		desired = p.Min
	}
	if desired > p.Max {
		desired = p.Max
	}

	a.gate.Lock()
	defer a.gate.Unlock()

	active, _, err := a.d.Replicas(p.Stage)
	if err != nil {
		// Not yet scaled.  Below the threshold the stage stays a plain
		// node — the split is only inserted once the load calls for it.
		if desired <= 1 {
			return 1, nil
		}
		op := graph.ScaleStage{Node: p.Stage, Replicas: p.Max, Places: p.Places, Build: p.Build}
		if err := a.d.Edit(op); err != nil {
			if err == graph.ErrDeploymentDone {
				return 1, nil // stream already drained; nothing to scale
			}
			return 0, fmt.Errorf("elastic: autoscale %q: insert split: %w", p.Stage, err)
		}
		active = p.Max
	}
	if desired == active {
		return active, nil
	}
	got, err := a.d.SetReplicas(p.Stage, desired)
	if err != nil {
		return active, fmt.Errorf("elastic: autoscale %q: set %d replicas: %w", p.Stage, desired, err)
	}
	if a.OnScale != nil {
		a.OnScale(p.Stage, got)
	}
	return got, nil
}

// FoldDown drops every scaled policy stage to its Min active replicas,
// under the gate.  Wired to the directory's down transitions by
// BindDirectory: when a node dies, capacity assumptions are void, so the
// cluster folds to the floor and lets subsequent Ticks grow it back.
func (a *Autoscaler) FoldDown() {
	a.mu.Lock()
	policies := make([]Policy, len(a.policies))
	copy(policies, a.policies)
	a.mu.Unlock()

	a.gate.Lock()
	defer a.gate.Unlock()
	for _, p := range policies {
		active, _, err := a.d.Replicas(p.Stage)
		if err != nil || active <= p.Min {
			continue // not scaled, or already at the floor
		}
		if got, err := a.d.SetReplicas(p.Stage, p.Min); err == nil && a.OnScale != nil {
			a.OnScale(p.Stage, got)
		}
	}
}

// BindDirectory chains FoldDown into the directory's OnDown hook (after any
// hook already installed — typically the Supervisor's).  Because FoldDown
// takes the same gate the Supervisor holds across its recovery, the
// fold-back and the failover serialize instead of double-Replacing.
func (a *Autoscaler) BindDirectory(dir *control.Directory) {
	prev := dir.OnDown
	dir.OnDown = func(name string, err error) {
		if prev != nil {
			prev(name, err)
		}
		go a.FoldDown()
	}
}
