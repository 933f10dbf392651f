package qos

import (
	"slices"
	"time"

	"infopipes/internal/core"
	"infopipes/internal/item"
)

// Admission is the admission-control component: a conversion function the
// graph deployer inserts directly after a deployment's true sources, so
// overload is shed or blocked BEFORE the first queue — counters instead of
// queue growth, bounded memory instead of OOM.
//
// The limiter is a GCRA token bucket (theoretical-arrival-time form: one
// time.Time of state, no token counter to decay) driven by the pipeline's
// virtual clock, so admission decisions are deterministic and reproducible
// across runs and shard counts.  Each Admission instance carries its own
// bucket: the tenant's rate bounds each source independently, keeping
// per-shard state local and the trace independent of sibling shards.
type Admission struct {
	core.Base
	tenant   *Tenant
	gen      uint64        // tenant rate generation the cache below was built from
	interval time.Duration // virtual time per admitted item; 0 = unlimited
	tol      time.Duration // burst tolerance: interval * (burst-1)
	tat      time.Time     // theoretical arrival time (bucket state)
}

var _ core.Function = (*Admission)(nil)

// NewAdmission creates an admission gate for the tenant.  A tenant without a
// rate limit yields a pass-through that still counts admitted items (the
// per-tenant items rollup reads it).
func NewAdmission(name string, tenant *Tenant) *Admission {
	a := &Admission{Base: core.Base{CompName: name}, tenant: tenant}
	a.reload(tenant.RateGen())
	return a
}

// reload recomputes the cached bucket parameters from the tenant's current
// rate/burst.  The GCRA state (tat) is kept: the theoretical arrival time
// converges under the new interval within one burst window, so a live rate
// change neither forgives past over-rate traffic nor punishes conforming
// flows.
func (a *Admission) reload(gen uint64) {
	a.gen = gen
	a.interval, a.tol = 0, 0
	if rate := a.tenant.Rate(); rate > 0 {
		a.interval = time.Duration(float64(time.Second) / rate)
		a.tol = a.interval * time.Duration(a.tenant.Burst()-1)
	}
}

// AdmissionIndex returns the stage index after which a deployment inserts
// an admission gate into a true-source segment.  The gate must run in PUSH
// mode: a pull-mode conversion that filters an item is immediately re-pulled
// at the same (virtual) instant, so a drop-shedding gate upstream of the
// pump would drain the whole source inside one pump cycle instead of
// shedding at the pump's pace.  Downstream of the pump, one pump cycle is
// one admission offer — drop discards that cycle's item, block backpressures
// the pump thread — and on the virtual clock the decision sequence is a pure
// function of the tick times.
//
// The index is the first pump stage, provided no buffer precedes it (a
// buffer would queue unadmitted items, defeating shed-before-the-first-
// queue); otherwise the leading stage (an active source pushes, so the gate
// still runs in push mode there).
func AdmissionIndex(stages []core.Stage) int {
	for i, st := range stages {
		if _, ok := st.IsBuffer(); ok {
			return 0
		}
		if _, ok := st.IsPump(); ok {
			return i
		}
	}
	return 0
}

// InsertAdmission gates a true-source pipeline with tenant t's admission
// control: it inserts an Admission named name behind AdmissionIndex and
// returns the stages and the index the gate took.
func InsertAdmission(stages []core.Stage, name string, t *Tenant) ([]core.Stage, int) {
	at := AdmissionIndex(stages) + 1
	return slices.Insert(stages, at, core.Comp(NewAdmission(name, t))), at
}

// Tenant returns the tenant this gate admits for.
func (a *Admission) Tenant() *Tenant { return a.tenant }

// Style implements core.Component.
func (a *Admission) Style() core.Style { return core.StyleFunction }

// Convert implements core.Function: the admission decision.  Conforming
// items pass and charge the bucket; non-conforming items are dropped
// (ShedDrop: recycled and counted, nil result filters them from the flow) or
// the producing thread sleeps until the bucket conforms (ShedBlock:
// source-side backpressure, control events still dispatched while asleep).
//
// A live RebindTenant rate change is picked up here: one atomic generation
// load per item (alloc-free) detects it, and the bucket parameters are
// recomputed out of line.
//
//ipvet:hotpath admission fast path; every source item passes here
func (a *Admission) Convert(ctx *core.Ctx, it *item.Item) (*item.Item, error) {
	if g := a.tenant.rateGen.Load(); g != a.gen {
		a.reload(g)
	}
	if a.interval == 0 {
		a.tenant.admitted.Add(1)
		return it, nil
	}
	now := ctx.Now()
	conformAt := a.tat.Add(-a.tol)
	if now.Before(conformAt) {
		if a.tenant.shed == ShedDrop {
			a.tenant.sheds.Add(1)
			it.Recycle()
			return nil, nil
		}
		// ShedBlock: suspend the source until the bucket conforms.  The
		// sleep dispatches control events, and a stop abandons the item.
		//ipvet:allow hotalloc over-rate park path; the thread sleeps here, so the closure is not per-item cost
		if !ctx.Thread().SleepUntilOr(conformAt, ctx.Stopping) {
			it.Recycle()
			return nil, core.ErrStopped
		}
		now = ctx.Now()
	}
	if a.tat.Before(now) {
		a.tat = now
	}
	a.tat = a.tat.Add(a.interval)
	a.tenant.admitted.Add(1)
	return it, nil
}
