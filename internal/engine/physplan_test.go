package engine

import (
	"reflect"
	"testing"

	"rfabric/internal/expr"
	"rfabric/internal/geometry"
	"rfabric/internal/plan"
	"rfabric/internal/table"
)

func TestFromPlanExtractsSinks(t *testing.T) {
	q := Query{
		GroupBy:    []int{0},
		Aggregates: []AggTerm{{Kind: expr.Count}},
	}
	root := PlanOf(q, "t").
		OrderBy([]plan.SortKey{{Key: -1, Agg: 0, Desc: true}}).
		Limit(2)
	got, sk, err := FromPlan(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(sk.Keys) != 1 || !sk.Keys[0].Desc || !sk.HasLimit || sk.Limit != 2 {
		t.Errorf("sinks = %+v", sk)
	}
	if !reflect.DeepEqual(got.Sinks, sk) {
		t.Errorf("query sinks %+v, returned sinks %+v", got.Sinks, sk)
	}
}

// foldRows folds rows, one value per schema column, on the scalar
// consumer and finishes them as a serial run does: grouped output on its
// group table, under q.Sinks.
func foldRows(q Query, sch *geometry.Schema, rows [][]table.Value) *Result {
	var compute uint64
	cons := newConsumer(q, sch, &compute)
	for _, r := range rows {
		cons.consumeRow(func(c int) table.Value { return r[c] })
	}
	return cons.finish("T", 0, false)
}

// sinkResult finishes three groups under sk: keys 1, 2, 3 with sums 10,
// 30, 10 over 2, 1 and 3 rows.
func sinkResult(sk Sinks) *Result {
	sch := geometry.MustSchema(
		geometry.Column{Name: "k", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "v", Type: geometry.Float64, Width: 8},
	)
	q := Query{GroupBy: []int{0}, Aggregates: []AggTerm{{Kind: expr.Sum, Arg: expr.ColRef{Col: 1}}}, Sinks: sk}
	var rows [][]table.Value
	for _, r := range [][2]float64{{3, 4}, {1, 5}, {2, 30}, {3, 3}, {1, 5}, {3, 3}} {
		rows = append(rows, []table.Value{table.I64(int64(r[0])), table.F64(r[1])})
	}
	return foldRows(q, sch, rows)
}

func TestApplySinksSortAndLimit(t *testing.T) {
	sk := Sinks{Keys: []plan.SortKey{{Key: -1, Agg: 0, Desc: true}}}
	res := sinkResult(sk)
	cycles := ApplySinks(res, sk)
	if cycles == 0 {
		t.Errorf("sort over %d groups charged nothing", len(res.Groups))
	}
	if res.Breakdown.ComputeCycles != cycles || res.Breakdown.TotalCycles != cycles {
		t.Errorf("sink cycles not added to breakdown: %+v", res.Breakdown)
	}
	// 30 first; the two ties (both 10) keep the canonical (key) order.
	if res.Groups[0].Aggs[0].Float != 30 {
		t.Errorf("descending sort: first agg = %v", res.Groups[0].Aggs[0])
	}
	if res.Groups[1].Key[0].Int != 1 || res.Groups[2].Key[0].Int != 3 {
		t.Errorf("ties not in canonical order: keys %v, %v", res.Groups[1].Key[0], res.Groups[2].Key[0])
	}
	if res.Groups[1].Count != 2 || res.Groups[2].Count != 3 {
		t.Errorf("tied groups' counts %d, %d, want 2, 3", res.Groups[1].Count, res.Groups[2].Count)
	}

	limit := Sinks{Limit: 1, HasLimit: true}
	res2 := sinkResult(limit)
	ApplySinks(res2, limit)
	if len(res2.Groups) != 1 || res2.Groups[0].Key[0].Int != 1 {
		t.Errorf("limit: groups = %+v", res2.Groups)
	}
}

func TestApplySinksLimitZero(t *testing.T) {
	sk := Sinks{Limit: 0, HasLimit: true}
	res := sinkResult(sk)
	cycles := ApplySinks(res, sk)
	if cycles != 0 {
		t.Errorf("LIMIT 0 charged %d cycles", cycles)
	}
	if len(res.Groups) != 0 {
		t.Errorf("LIMIT 0 left %d groups", len(res.Groups))
	}
}

func TestApplySinksEmptyNoCharge(t *testing.T) {
	res := sinkResult(Sinks{})
	if cycles := ApplySinks(res, Sinks{}); cycles != 0 {
		t.Errorf("empty sinks charged %d cycles", cycles)
	}
	if len(res.Groups) != 3 {
		t.Errorf("empty sinks mutated groups")
	}
}

func TestChoosePlanStampsSource(t *testing.T) {
	fx := newFixture(t, 4, 512, false)
	o := &Optimizer{Tbl: fx.tbl, Sys: fx.sys}
	tbl := fx.tbl
	q := Query{Projection: []int{0, 1}}
	root := PlanOf(q, tbl.Name())
	p, err := o.ChoosePlan(root)
	if err != nil {
		t.Fatal(err)
	}
	if root.Scan().Source == "" || root.Scan().Source != p.Chosen {
		t.Errorf("scan source %q vs chosen %q", root.Scan().Source, p.Chosen)
	}
}
