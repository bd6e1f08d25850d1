package engine

import (
	"math"
	"testing"

	"rfabric/internal/expr"
	"rfabric/internal/geometry"
	"rfabric/internal/index"
	"rfabric/internal/table"
)

func newIndexedFixture(t *testing.T, rows int) (*testFixture, *index.BTree) {
	t.Helper()
	f := newFixture(t, 8, rows, false)
	idx, err := index.Build(f.tbl, 0, f.sys.Arena)
	if err != nil {
		t.Fatal(err)
	}
	return f, idx
}

func TestIndexEngineMatchesRowEngine(t *testing.T) {
	f, idx := newIndexedFixture(t, 4000)
	queries := []Query{
		{Projection: []int{3, 5}, Selection: expr.Conjunction{{Col: 0, Op: expr.Eq, Operand: table.I32(500)}}},
		{Projection: []int{1}, Selection: expr.Conjunction{
			{Col: 0, Op: expr.Ge, Operand: table.I32(100)},
			{Col: 0, Op: expr.Lt, Operand: table.I32(140)},
		}},
		{Projection: []int{1}, Selection: expr.Conjunction{
			{Col: 0, Op: expr.Le, Operand: table.I32(50)},
			{Col: 4, Op: expr.Gt, Operand: table.I32(300)}, // residual predicate
		}},
		{Selection: expr.Conjunction{{Col: 0, Op: expr.Lt, Operand: table.I32(200)}},
			Aggregates: []AggTerm{{Kind: expr.Count}, {Kind: expr.Sum, Arg: expr.ColRef{Col: 2}}}},
	}
	for i, q := range queries {
		f.sys.ResetState()
		ref := mustExec(t, &RowEngine{Tbl: f.tbl, Sys: f.sys}, q)
		f.sys.ResetState()
		got := mustExec(t, &IndexEngine{Tbl: f.tbl, Sys: f.sys, Idx: idx}, q)
		if err := got.EquivalentTo(ref, 1e-9); err != nil {
			t.Errorf("query %d: IDX diverges from ROW: %v", i, err)
		}
	}
}

func TestIndexEngineRequiresIndexedPredicate(t *testing.T) {
	f, idx := newIndexedFixture(t, 100)
	e := &IndexEngine{Tbl: f.tbl, Sys: f.sys, Idx: idx}
	if _, err := e.Execute(Query{Projection: []int{1}}); err == nil {
		t.Error("unconstrained query accepted")
	}
	if _, err := e.Execute(Query{Projection: []int{1},
		Selection: expr.Conjunction{{Col: 3, Op: expr.Eq, Operand: table.I32(1)}}}); err == nil {
		t.Error("query constraining a different column accepted")
	}
}

func TestIndexEngineBeatsScanOnPointQueries(t *testing.T) {
	f, idx := newIndexedFixture(t, 30_000)
	q := Query{Projection: []int{3}, Selection: expr.Conjunction{{Col: 0, Op: expr.Eq, Operand: table.I32(123)}}}
	f.sys.ResetState()
	viaIndex := mustExec(t, &IndexEngine{Tbl: f.tbl, Sys: f.sys, Idx: idx}, q)
	f.sys.ResetState()
	viaScan := mustExec(t, &RMEngine{Tbl: f.tbl, Sys: f.sys}, q)
	if viaIndex.Breakdown.TotalCycles*10 > viaScan.Breakdown.TotalCycles {
		t.Errorf("index path (%d cycles) not clearly below the scan (%d)",
			viaIndex.Breakdown.TotalCycles, viaScan.Breakdown.TotalCycles)
	}
}

func TestOptimizerRoutesPointQueriesToIndex(t *testing.T) {
	f, idx := newIndexedFixture(t, 30_000)
	opt := &Optimizer{Tbl: f.tbl, Sys: f.sys, Store: f.store, Index: idx}

	point := Query{Projection: []int{3}, Selection: expr.Conjunction{{Col: 0, Op: expr.Eq, Operand: table.I32(7)}}}
	plan, err := opt.Choose(point)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Chosen != "IDX" {
		t.Errorf("point query routed to %s (%s)", plan.Chosen, plan)
	}

	// A full scan must not use the index.
	scan := Query{Projection: []int{0, 1, 2, 3, 4, 5, 6, 7}}
	plan, err = opt.Choose(scan)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Chosen == "IDX" {
		t.Errorf("full scan routed to the index (%s)", plan)
	}
}

// TestIndexEngineKeyEdges: on a BIGINT key holding both int64 extremes,
// k > MaxInt64 and k < MinInt64 walk no candidate (one past either end
// must not wrap around to the whole tree), while k >= MaxInt64 and
// k <= MinInt64 find their one row each.
func TestIndexEngineKeyEdges(t *testing.T) {
	sch := geometry.MustSchema(
		geometry.Column{Name: "k", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "v", Type: geometry.Int32, Width: 4},
	)
	sys := MustSystem(DefaultSystemConfig())
	keys := []int64{math.MinInt64, -1, 0, 1, math.MaxInt64}
	tbl := table.MustNew("edges", sch, table.WithBaseAddr(sys.Arena.Alloc(int64(len(keys)*sch.RowBytes()))))
	for i, k := range keys {
		tbl.MustAppend(0, table.I64(k), table.I32(int32(i)))
	}
	idx, err := index.Build(tbl, 0, sys.Arena)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		op   expr.CmpOp
		key  int64
		want int64
	}{
		{expr.Gt, math.MaxInt64, 0},
		{expr.Lt, math.MinInt64, 0},
		{expr.Ge, math.MaxInt64, 1},
		{expr.Le, math.MinInt64, 1},
	} {
		q := Query{Projection: []int{1}, Selection: expr.Conjunction{{Col: 0, Op: c.op, Operand: table.I64(c.key)}}}
		res := mustExec(t, &IndexEngine{Tbl: tbl, Sys: sys, Idx: idx}, q)
		if res.RowsScanned != c.want || res.RowsPassed != c.want {
			t.Errorf("k %s %d: %d candidates, %d passed; want %d", c.op, c.key, res.RowsScanned, res.RowsPassed, c.want)
		}
	}
}
