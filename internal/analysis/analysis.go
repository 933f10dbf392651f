// Package analysis is ipvet's static-analysis suite: five analyzers that
// enforce, at analysis time, the invariants the runtime's determinism
// guarantee rests on — properties the test harness can only sample (one
// AllocsPerRun call site, fifty seeded DAGs) are checked here over every
// path of every governed package:
//
//   - wallclock: scheduler-governed packages take time from the virtual
//     clock (vclock / ctx.Now), never from the time package directly.  One
//     stray time.Now in stage code silently breaks the byte-identical-trace
//     guarantee.
//   - maporder: Go map iteration order is random per run; a `range` over a
//     map whose order escapes into ordered output (appends that are not
//     sorted afterwards, channel sends, sink calls) is exactly the bug class
//     that made events.Bus.Broadcast nondeterministic before PR 4 fixed it.
//   - hotalloc: functions annotated //ipvet:hotpath must not allocate —
//     closures, interface boxing, fmt, string concatenation, un-capped
//     appends — covering statically every path the AllocsPerRun spot tests
//     sample dynamically.
//   - atomics: a field accessed through sync/atomic anywhere must never be
//     plainly read or written elsewhere, and mixing mutex- and
//     atomic-protection on one field is flagged.
//   - rawgo: stage and pipeline implementations own no concurrency — no raw
//     `go` statements or channel creation; threads belong to the uthread
//     scheduler (thread transparency, §3 of the paper).
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, reported diagnostics, testdata fixtures with `// want`
// expectations) but is built on the standard library alone: the module has
// no external dependencies and the analyzers need none.
//
// Legitimate violations are suppressed in place with
//
//	//ipvet:allow <check> <reason>
//
// on the offending line or the line above.  The reason is mandatory — an
// allow without one is itself a finding — and every suppression is recorded
// in an inventory (`ipvet -suppressions`) so exemptions stay auditable.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named static check.
type Analyzer struct {
	// Name identifies the check; it is what an //ipvet:allow annotation
	// names to suppress one of its findings.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run reports findings on one package through pass.Reportf.
	Run func(pass *Pass) error
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	directives  *directiveIndex
	diagnostics *[]Diagnostic
	suppressed  *[]Suppression
}

// A Diagnostic is one unsuppressed finding.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Check, d.Message)
}

// A Suppression records one honored //ipvet:allow annotation: where, which
// check it silenced, and the justification its author gave.
type Suppression struct {
	Pos     token.Position // position of the suppressed finding
	Check   string
	Reason  string
	Message string // the finding that was suppressed
}

func (s Suppression) String() string {
	return fmt.Sprintf("%s: allow %s: %s (suppressed: %s)", s.Pos, s.Check, s.Reason, s.Message)
}

// Reportf reports a finding at pos.  If the line (or the line above it)
// carries a matching //ipvet:allow annotation with a reason, the finding is
// recorded as a Suppression instead; a matching annotation without a reason
// does not suppress — the missing reason is appended to the finding.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	msg := fmt.Sprintf(format, args...)
	if a, ok := p.directives.allowFor(position, p.Analyzer.Name); ok {
		if a.reason == "" {
			*p.diagnostics = append(*p.diagnostics, Diagnostic{
				Pos:   position,
				Check: p.Analyzer.Name,
				Message: msg + " (an //ipvet:allow annotation is present but has no reason; " +
					"a justification string is required to suppress)",
			})
			return
		}
		*p.suppressed = append(*p.suppressed, Suppression{
			Pos:     position,
			Check:   p.Analyzer.Name,
			Reason:  a.reason,
			Message: msg,
		})
		return
	}
	*p.diagnostics = append(*p.diagnostics, Diagnostic{Pos: position, Check: p.Analyzer.Name, Message: msg})
}

// Hotpath reports whether fn carries an //ipvet:hotpath annotation.
func (p *Pass) Hotpath(fn *ast.FuncDecl) bool {
	return p.directives.hotpath(p.Fset, fn)
}

// Governed reports whether the package the pass runs on is subject to a
// check that governs the given infopipes-internal package names.  Three
// tiers:
//
//   - infopipes/internal/<name>: governed iff <name> is in names
//     (exceptions listed in exempt win over names; "*" in names means every
//     internal package not exempted),
//   - any other infopipes/... path (cmd, examples, the facade): governed
//     only when its module-relative path ("cmd/ipctl") is listed EXPLICITLY
//     in names — "*" does not reach here, because operator tooling and
//     benchmark harnesses legitimately use what the runtime must not.
//     Opting a tool in (maporder over cmd/ipctl keeps its table output
//     deterministic) is a per-check decision,
//   - any non-infopipes path: always governed.  This is what lets the
//     testdata fixtures exercise each analyzer without belonging to a
//     governed runtime package.
func (p *Pass) Governed(names []string, exempt []string) bool {
	path := p.Pkg.Path()
	if !strings.HasPrefix(path, "infopipes") {
		return true
	}
	rest, ok := strings.CutPrefix(path, "infopipes/internal/")
	if !ok {
		rel, _ := strings.CutPrefix(path, "infopipes/")
		for _, n := range names {
			if n == rel && rel != "" {
				return true
			}
		}
		return false
	}
	name := rest
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		name = rest[:i]
	}
	for _, e := range exempt {
		if name == e {
			return false
		}
	}
	for _, n := range names {
		if n == "*" || n == name {
			return true
		}
	}
	return false
}

// Result aggregates one run of the suite over a set of packages.
type Result struct {
	Diagnostics []Diagnostic
	Suppressed  []Suppression
}

// Analyzers returns the full ipvet suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{WallclockAnalyzer, MaporderAnalyzer, HotallocAnalyzer, AtomicsAnalyzer, RawgoAnalyzer}
}

// Run applies the given analyzers to every package and returns the combined
// findings, sorted by position.  Malformed //ipvet: directives are reported
// as findings regardless of which analyzers run.
func Run(pkgs []*Package, analyzers []*Analyzer) (Result, error) {
	var res Result
	for _, pkg := range pkgs {
		idx, derrs := indexDirectives(pkg.Fset, pkg.Files)
		res.Diagnostics = append(res.Diagnostics, derrs...)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:    a,
				Fset:        pkg.Fset,
				Files:       pkg.Files,
				Pkg:         pkg.Types,
				TypesInfo:   pkg.Info,
				directives:  idx,
				diagnostics: &res.Diagnostics,
				suppressed:  &res.Suppressed,
			}
			if err := a.Run(pass); err != nil {
				return res, fmt.Errorf("ipvet: %s on %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
	}
	sortByPos(res.Diagnostics, func(d Diagnostic) token.Position { return d.Pos })
	sortByPos(res.Suppressed, func(s Suppression) token.Position { return s.Pos })
	return res, nil
}

func sortByPos[T any](s []T, pos func(T) token.Position) {
	sort.SliceStable(s, func(i, j int) bool {
		a, b := pos(s[i]), pos(s[j])
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
}
