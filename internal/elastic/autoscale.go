package elastic

import (
	"errors"
	"fmt"

	"infopipes/internal/core"
	"infopipes/internal/graph"
)

// Policy declares how one stage scales (Cluster.Autoscale).  The loop
// watches the deployment's item rate each tick; when it exceeds what one
// replica comfortably handles, the stage is put behind an auto-inserted
// elastic route-split (graph.ScaleStage — deterministic (Seq-1)%active
// selector, order reconstructed by the merge, so traces stay seed-stable)
// and the active replica count then tracks load between Min and Max.
type Policy struct {
	// Stage is the node name of the hot stage.
	Stage string
	// Max is the replica ceiling — the declared width of the auto-inserted
	// split (must be >= 2).
	Max int
	// Min is the active-replica floor (default 1).  Fold-back never goes
	// below it.
	Min int
	// TargetPerTick is the item delta per tick one replica is expected to
	// absorb; desired replicas = ceil(delta / TargetPerTick).
	TargetPerTick int64
	// Places optionally pins replica i to shard Places[i] (len Max).
	Places []int
	// Build constructs replica i for stages declared live (core.Comp);
	// spec-declared stages clone from the catalog and may leave it nil.
	Build func(i int) (core.Stage, error)
}

// autoscale is one autoscale step for a deployment, as one external action
// on its group: the widths change at the instant the rate was read.  fold
// (a node died) drops every scaled stage to its floor instead and
// re-primes the rate: the capacity the widths were sized for is gone.
func (c *Cluster) autoscale(m managed, fold bool) (err error) {
	if len(m.scale) == 0 {
		return nil
	}
	m.d.External(func() {
		if fold {
			m.rate.primed = false
			err = c.apply(m, resize(m.scale, widths(m), 0, true))
		} else if delta, ok := m.rate.next(m.d.Stats()); ok {
			err = c.apply(m, resize(m.scale, widths(m), delta, false))
		}
	})
	return err
}

// widths reads each policy stage's active replicas (0: no split yet).
func widths(m managed) map[string]int {
	out := make(map[string]int, len(m.scale))
	for _, p := range m.scale {
		if active, _, err := m.d.Replicas(p.Stage); err == nil {
			out[p.Stage] = active
		}
	}
	return out
}

// apply carries out a resize decision, in policy order: a stage without a
// split first gets one Max wide.
func (c *Cluster) apply(m managed, want map[string]int) error {
	for _, p := range m.scale {
		w, ok := want[p.Stage]
		if !ok {
			continue
		}
		if _, _, err := m.d.Replicas(p.Stage); err != nil {
			op := graph.ScaleStage{Node: p.Stage, Replicas: p.Max, Places: p.Places, Build: p.Build}
			if err := m.d.Edit(op); errors.Is(err, graph.ErrDeploymentDone) {
				return nil // stream already drained; nothing to scale
			} else if err != nil {
				return fmt.Errorf("elastic: autoscale %q: insert split: %w", p.Stage, err)
			}
		}
		got, err := m.d.SetReplicas(p.Stage, w)
		if err != nil {
			return fmt.Errorf("elastic: autoscale %q: set %d replicas: %w", p.Stage, w, err)
		}
		c.record(Scale, "", fmt.Sprintf("deployment=%s %s=%d", m.d.Name(), p.Stage, got))
	}
	return nil
}
