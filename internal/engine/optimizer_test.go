package engine

import (
	"testing"

	"rfabric/internal/expr"
	"rfabric/internal/table"
)

// optimizerQueries is a diverse workload: narrow and wide projections,
// selective and pass-through predicates, aggregation.
func optimizerQueries() map[string]Query {
	return map[string]Query{
		"narrow-scan": {Projection: []int{3}},
		"two-col":     {Projection: []int{0, 8}},
		"wide-scan":   {Projection: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
		"selective": {
			Projection: []int{2, 9},
			Selection:  expr.Conjunction{{Col: 5, Op: expr.Lt, Operand: table.I32(100)}},
		},
		"agg": {
			Selection:  expr.Conjunction{{Col: 1, Op: expr.Lt, Operand: table.I32(500)}},
			Aggregates: []AggTerm{{Kind: expr.Count}, {Kind: expr.Sum, Arg: expr.ColRef{Col: 4}}},
		},
	}
}

// TestOptimizerTracksMeasuredBest: the constructed plan's engine must
// measure within 1.4x of the actually fastest engine on every workload —
// the constructive optimization claim of §III-B, with modeling slack.
func TestOptimizerTracksMeasuredBest(t *testing.T) {
	f := newFixture(t, 16, 20_000, false)
	opt := &Optimizer{Tbl: f.tbl, Sys: f.sys, Store: f.store}

	for name, q := range optimizerQueries() {
		plan, err := opt.Choose(q)
		if err != nil {
			t.Fatalf("%s: Choose: %v", name, err)
		}

		measured := map[string]uint64{}
		for _, e := range []Source{
			&RowEngine{Tbl: f.tbl, Sys: f.sys},
			&ColEngine{Store: f.store, Sys: f.sys},
			&RMEngine{Tbl: f.tbl, Sys: f.sys},
		} {
			f.sys.ResetState()
			r, err := Run(e, q)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, e.Name(), err)
			}
			measured[e.Name()] = r.Breakdown.TotalCycles
		}
		best := ""
		for eng, c := range measured {
			if best == "" || c < measured[best] {
				best = eng
			}
		}
		chosen := measured[plan.Chosen]
		slack := float64(chosen) / float64(measured[best])
		t.Logf("%s: chose %s (%.2fx of best %s) — %s", name, plan.Chosen, slack, best, plan)
		if slack > 1.4 {
			t.Errorf("%s: optimizer chose %s at %.2fx of the best (%s)", name, plan.Chosen, slack, best)
		}
	}
}

func TestOptimizerWithoutColumnarCopy(t *testing.T) {
	f := newFixture(t, 8, 2_000, false)
	opt := &Optimizer{Tbl: f.tbl, Sys: f.sys} // no Store
	plan, err := opt.Choose(Query{Projection: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Chosen == "COL" {
		t.Error("optimizer chose the columnar copy it does not have")
	}
	found := false
	for _, e := range plan.Estimates {
		if e.Engine == "COL" {
			found = true
			if e.Available {
				t.Error("COL reported available without a copy")
			}
			if e.Reason == "" {
				t.Error("unavailable path has no reason")
			}
		}
	}
	if !found {
		t.Error("COL estimate missing from the plan")
	}
}

func TestOptimizerSnapshotForcesFabricOrRow(t *testing.T) {
	f := newFixture(t, 8, 2_000, true)
	opt := &Optimizer{Tbl: f.tbl, Sys: f.sys, Store: f.store}
	ts := uint64(1)
	plan, err := opt.Choose(Query{Projection: []int{0, 1, 2, 3, 4}, Snapshot: &ts})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Chosen == "COL" {
		t.Error("optimizer chose the versionless columnar copy for a snapshot query")
	}
}

func TestOptimizerValidation(t *testing.T) {
	f := newFixture(t, 4, 10, false)
	opt := &Optimizer{Tbl: f.tbl, Sys: f.sys}
	if _, err := opt.Choose(Query{}); err == nil {
		t.Error("empty query accepted")
	}
	bad := &Optimizer{}
	if _, err := bad.Choose(Query{Projection: []int{0}}); err == nil {
		t.Error("optimizer without table accepted")
	}
}
