package analysis

import (
	"go/ast"
	"go/types"
)

// WallclockAnalyzer enforces the virtual-clock discipline: runtime packages
// never read or wait on the wall clock directly.  Thread transparency (§3)
// and the byte-identical-trace guarantee both assume every temporal
// decision flows through vclock — a single time.Now in stage code stamps
// nondeterministic values into items, and a single time.Sleep stalls a
// uthread's carrier OS thread outside the scheduler's knowledge.
//
// Governed: every infopipes/internal package except vclock (it *is* the
// abstraction over the time package), experiments (the benchmark harness
// measures real elapsed time by design) and leakcheck (test support: it
// waits real time for goroutines to exit).  Uses of time.Time / time.Duration
// as types are fine — only the clock-reading and clock-waiting functions
// are flagged.  Legitimate uses (I/O deadlines in netpipe, heartbeat
// tickers in control) carry //ipvet:allow wallclock annotations.
var WallclockAnalyzer = &Analyzer{
	Name: "wallclock",
	Doc:  "no wall-clock reads or waits in scheduler-governed packages; virtual time via vclock only",
	Run:  runWallclock,
}

// wallclockBanned lists the time-package functions whose results or effects
// depend on the wall clock.  Referencing one — calling it, or taking it as
// a function value (time.Now stored in a field is as nondeterministic as
// calling it) — is a finding.
var wallclockBanned = map[string]string{
	"Now":       "reads the wall clock",
	"Sleep":     "stalls the carrier thread outside the scheduler",
	"After":     "waits on the wall clock",
	"AfterFunc": "schedules on the wall clock",
	"NewTimer":  "waits on the wall clock",
	"NewTicker": "ticks on the wall clock",
	"Tick":      "ticks on the wall clock (and leaks the ticker)",
	"Since":     "reads the wall clock",
	"Until":     "reads the wall clock",
}

func runWallclock(pass *Pass) error {
	if !pass.Governed([]string{"*"}, []string{"vclock", "experiments", "leakcheck"}) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
				return true
			}
			fn, isFunc := obj.(*types.Func)
			if !isFunc || fn.Type().(*types.Signature).Recv() != nil {
				// Methods (t.After, t.Sub, ...) compare instants the caller
				// already has; only the package-level clock readers are
				// nondeterministic.
				return true
			}
			why, banned := wallclockBanned[obj.Name()]
			if !banned {
				return true
			}
			pass.Reportf(sel.Pos(), "time.%s %s; governed packages must take time from the virtual clock (vclock / ctx.Now)", obj.Name(), why)
			return true
		})
	}
	return nil
}
