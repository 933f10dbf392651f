package control

import (
	"testing"

	"infopipes/internal/core"
	"infopipes/internal/graph"
	"infopipes/internal/pipes"
)

// TestOperatorRefusesMalformedEdits: an edit whose carried stages do not
// fit its kind, an unknown kind, and a stage sent to an operator without a
// catalog are each refused before any reaches a deployment.
func TestOperatorRefusesMalformedEdits(t *testing.T) {
	cat := graph.Catalog{"probe": func(name string, _ []string, _ map[string]string) (core.Stage, error) {
		return core.Comp(pipes.NewFuncFilter(name, nil)), nil
	}}
	probe := OpStage{Kind: "probe", Name: "p"}
	for _, tc := range []struct {
		name string
		cat  graph.Catalog
		edit OpEdit
	}{
		{"insert with 2 stages", cat, OpEdit{Kind: "insert", From: "a", To: "b", Stages: []OpStage{probe, probe}}},
		{"swap with 0 stages", cat, OpEdit{Kind: "swap", Node: "a"}},
		{"unknown kind", cat, OpEdit{Kind: "graft", Stages: []OpStage{probe}}},
		{"stage without a catalog", nil, OpEdit{Kind: "attach", Split: "s", Stages: []OpStage{probe}}},
	} {
		o := NewOperator()
		if tc.cat != nil {
			o.WithCatalog(tc.cat)
		}
		if ops, err := o.editOps([]OpEdit{tc.edit}); err == nil {
			t.Errorf("%s: accepted as %+v", tc.name, ops)
		}
	}
}
