package engine_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rfabric/internal/engine"
	"rfabric/internal/expr"
	"rfabric/internal/plan"
	"rfabric/internal/sql"
	"rfabric/internal/table"
	"rfabric/internal/tpch"
)

// TestPlanOfRoundTrip holds PlanOf and FromPlan to being inverses. A query
// with a snapshot, a selection, grouping and each shape of sinks survives
// the trip through the plan chain, and FromPlan returns the query's own
// sinks. For every single-table statement of the EXPLAIN goldens, the chain
// PlanOf rebuilds from FromPlan's query renders exactly as the lowered one.
func TestPlanOfRoundTrip(t *testing.T) {
	snap := uint64(7)
	desc := []plan.SortKey{{Key: -1, Agg: 1, Desc: true}, {Key: 0, Agg: -1}}
	for _, sk := range []engine.Sinks{{}, {Limit: 3, HasLimit: true}, {Keys: desc}, {Keys: desc, HasLimit: true}} {
		q := engine.Query{
			Selection:  expr.Conjunction{{Col: 1, Op: expr.Lt, Operand: table.F64(5)}},
			GroupBy:    []int{2},
			Aggregates: []engine.AggTerm{{Kind: expr.Count}, {Kind: expr.Sum, Arg: expr.ColRef{Col: 1}}},
			Snapshot:   &snap,
			Sinks:      sk,
		}
		root := engine.PlanOf(q, "items")
		if err := root.Validate(); err != nil {
			t.Fatalf("%+v: %v", sk, err)
		}
		if root.Scan().Table != "items" {
			t.Errorf("scan table = %q", root.Scan().Table)
		}
		got, gotSk, err := engine.FromPlan(root)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, q) {
			t.Errorf("round trip of %+v gave %+v", q, got)
		}
		if !reflect.DeepEqual(gotSk, sk) {
			t.Errorf("FromPlan returned sinks %+v, want %+v", gotSk, sk)
		}
	}

	sch := tpch.LineitemSchema()
	goldens, err := filepath.Glob(filepath.Join("..", "sql", "testdata", "explain_*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	statements, sunk := 0, 0
	for _, path := range goldens {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			text, ok := strings.CutPrefix(line, "query: ")
			if !ok || strings.Contains(text, " JOIN ") {
				continue
			}
			root, err := sql.Compile(text, sch)
			if err != nil {
				t.Fatalf("%s: %q: %v", path, text, err)
			}
			q, _, err := engine.FromPlan(root)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := engine.PlanOf(q, root.Scan().Table).Explain(sch), root.Explain(sch); got != want {
				t.Errorf("%q: PlanOf(FromPlan) renders\n%s\nwant\n%s", text, got, want)
			}
			statements++
			if !q.Sinks.Empty() {
				sunk++
			}
		}
	}
	if statements < 8 || sunk == 0 {
		t.Fatalf("the goldens gave %d single-table statements, %d with sinks", statements, sunk)
	}
}
