package engine

import (
	"testing"

	"rfabric/internal/expr"
	"rfabric/internal/geometry"
	"rfabric/internal/table"
)

func parallelFixture(t *testing.T, rows int) (*System, *table.Table) {
	t.Helper()
	sch, err := geometry.NewSchema(
		geometry.Column{Name: "id", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "val", Type: geometry.Float64, Width: 8},
		geometry.Column{Name: "grp", Type: geometry.Int32, Width: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	sys := MustSystem(DefaultSystemConfig())
	base := sys.Arena.Alloc(int64(rows * sch.RowBytes()))
	tbl := table.MustNew("par", sch, table.WithCapacity(rows), table.WithBaseAddr(base))
	for i := 0; i < rows; i++ {
		tbl.MustAppend(1, table.I64(int64(i)), table.F64(float64(i%97)/3), table.I32(int32(i%5)))
	}
	return sys, tbl
}

// TestParallelDeterministicAcrossWorkers asserts the tentpole guarantee:
// the result — rows, checksum, aggregates, groups — and every breakdown
// component except the makespan are identical for every worker count,
// because morsel boundaries and per-morsel machine state do not depend on
// scheduling. TotalCycles is the one field that may change: it models the
// parallel hardware, so it shrinks (never grows) as workers are added.
func TestParallelDeterministicAcrossWorkers(t *testing.T) {
	sys, tbl := parallelFixture(t, 10_000)
	queries := []Query{
		{Projection: []int{0, 1}, Selection: expr.Conjunction{{Col: 0, Op: expr.Lt, Operand: table.I64(7000)}}},
		{Aggregates: []AggTerm{
			{Kind: expr.Count},
			{Kind: expr.Sum, Arg: expr.ColRef{Col: 1}},
			{Kind: expr.Avg, Arg: expr.ColRef{Col: 1}},
			{Kind: expr.Min, Arg: expr.ColRef{Col: 1}},
			{Kind: expr.Max, Arg: expr.ColRef{Col: 1}},
		}},
		{GroupBy: []int{2}, Aggregates: []AggTerm{
			{Kind: expr.Sum, Arg: expr.ColRef{Col: 1}},
			{Kind: expr.Avg, Arg: expr.ColRef{Col: 1}},
		}},
	}
	for qi, q := range queries {
		var base *Result
		prevTotal := uint64(0)
		for _, workers := range []int{1, 2, 3, 8} {
			e := &ParallelEngine{Tbl: tbl, Sys: sys, Par: ParallelConfig{Workers: workers, MorselRows: 512}}
			r, err := e.Execute(q)
			if err != nil {
				t.Fatalf("query %d workers %d: %v", qi, workers, err)
			}
			if base == nil {
				base = r
				prevTotal = r.Breakdown.TotalCycles
				continue
			}
			if err := base.EquivalentTo(r, 0); err != nil {
				t.Fatalf("query %d: workers=1 vs workers=%d differ: %v", qi, workers, err)
			}
			a, b := base.Breakdown, r.Breakdown
			a.TotalCycles, b.TotalCycles = 0, 0
			if a != b {
				t.Fatalf("query %d: breakdown drifts with workers=%d:\n  %+v\nvs %+v",
					qi, workers, base.Breakdown, r.Breakdown)
			}
			if r.Breakdown.TotalCycles > prevTotal {
				t.Fatalf("query %d: makespan grew from %d to %d with workers=%d",
					qi, prevTotal, r.Breakdown.TotalCycles, workers)
			}
			prevTotal = r.Breakdown.TotalCycles
		}
	}
}

// TestParallelMatchesRM checks PAR against the single-goroutine RM engine.
func TestParallelMatchesRM(t *testing.T) {
	sys, tbl := parallelFixture(t, 5000)
	q := Query{
		Selection: expr.Conjunction{{Col: 2, Op: expr.Ne, Operand: table.I32(3)}},
		Aggregates: []AggTerm{
			{Kind: expr.Count},
			{Kind: expr.Sum, Arg: expr.ColRef{Col: 1}},
			{Kind: expr.Avg, Arg: expr.ColRef{Col: 1}},
		},
	}
	rm, err := (&RMEngine{Tbl: tbl, Sys: sys}).Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	sys.ResetState()
	par, err := (&ParallelEngine{Tbl: tbl, Sys: sys, Par: ParallelConfig{Workers: 4, MorselRows: 256}}).Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := rm.EquivalentTo(par, 1e-9); err != nil {
		t.Fatalf("PAR disagrees with RM: %v", err)
	}
}

// TestParallelEmptyTable asserts the empty-aggregate shape matches the
// engines' zero-row conventions: COUNT=0 (integral), SUM/MIN/MAX/AVG=0.0.
func TestParallelEmptyTable(t *testing.T) {
	sys, tbl := parallelFixture(t, 0)
	q := Query{Aggregates: []AggTerm{
		{Kind: expr.Count, Arg: expr.ColRef{Col: 0}},
		{Kind: expr.Sum, Arg: expr.ColRef{Col: 1}},
		{Kind: expr.Min, Arg: expr.ColRef{Col: 1}},
		{Kind: expr.Avg, Arg: expr.ColRef{Col: 1}},
	}}
	r, err := (&ParallelEngine{Tbl: tbl, Sys: sys, Par: ParallelConfig{Workers: 4}}).Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	want := []table.Value{table.I64(0), table.F64(0), table.F64(0), table.F64(0)}
	if len(r.Aggs) != len(want) {
		t.Fatalf("got %d aggregates, want %d", len(r.Aggs), len(want))
	}
	for i, w := range want {
		if !r.Aggs[i].Equal(w) {
			t.Errorf("aggregate %d: got %s, want %s", i, r.Aggs[i], w)
		}
	}
	if r.RowsPassed != 0 || r.RowsScanned != 0 {
		t.Errorf("rows: scanned=%d passed=%d, want 0/0", r.RowsScanned, r.RowsPassed)
	}
}

// TestParallelCycleSpeedup asserts the cost model rewards workers: the
// makespan at 8 workers must undercut the single-worker sum substantially
// on a uniform scan.
func TestParallelCycleSpeedup(t *testing.T) {
	sys, tbl := parallelFixture(t, 20_000)
	q := Query{Aggregates: []AggTerm{{Kind: expr.Sum, Arg: expr.ColRef{Col: 1}}}}
	run := func(workers int) uint64 {
		e := &ParallelEngine{Tbl: tbl, Sys: sys, Par: ParallelConfig{Workers: workers, MorselRows: 1024}}
		r, err := e.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		return r.Breakdown.TotalCycles
	}
	one, eight := run(1), run(8)
	if speedup := float64(one) / float64(eight); speedup < 1.5 {
		t.Fatalf("modeled speedup %0.2fx at 8 workers (1w=%d cycles, 8w=%d cycles), want > 1.5x",
			speedup, one, eight)
	}
}

func TestScheduleCycles(t *testing.T) {
	cases := []struct {
		parts   []uint64
		workers int
		want    uint64
	}{
		{nil, 4, 0},
		{[]uint64{10, 20, 30}, 1, 60},             // one worker: the sum
		{[]uint64{10, 20, 30}, 3, 30},             // enough workers: the max
		{[]uint64{10, 20, 30}, 100, 30},           // workers clamp to parts
		{[]uint64{10, 10, 10, 10}, 2, 20},         // even split
		{[]uint64{30, 10, 10, 10}, 2, 30},         // greedy balances around the big part
		{[]uint64{5, 5, 5, 5, 5, 5, 5, 5}, 0, 40}, // workers<1 clamps to 1
	}
	for i, c := range cases {
		if got := scheduleCycles(c.parts, c.workers); got != c.want {
			t.Errorf("case %d: scheduleCycles(%v, %d) = %d, want %d", i, c.parts, c.workers, got, c.want)
		}
	}
}
