package engine_test

import (
	"math"
	"slices"
	"sync"
	"testing"

	"rfabric/internal/colstore"
	"rfabric/internal/engine"
	"rfabric/internal/index"
	"rfabric/internal/plan"
	"rfabric/internal/sql"
	"rfabric/internal/table"
	"rfabric/internal/tpch"
)

// samplePricingStatements are the scan workload's four statement shapes
// over lineitem: a selective projection, Q1, Q6 and a top-N.
var samplePricingStatements = map[string]string{
	"projection": `SELECT l_orderkey, l_extendedprice, l_quantity FROM lineitem WHERE l_shipdate < DATE '1995-06-17'`,
	"q1": `SELECT l_returnflag, l_linestatus, SUM(l_quantity), SUM(l_extendedprice), ` +
		`SUM(l_extendedprice * (1 - l_discount)), AVG(l_discount), COUNT(*) FROM lineitem ` +
		`WHERE l_shipdate <= DATE '1998-09-02' GROUP BY l_returnflag, l_linestatus`,
	"q6": `SELECT SUM(l_extendedprice * l_discount) FROM lineitem WHERE l_shipdate >= DATE '1994-01-01' ` +
		`AND l_shipdate < DATE '1995-01-01' AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24`,
	"top-n": `SELECT l_suppkey, SUM(l_extendedprice), COUNT(*) FROM lineitem WHERE l_shipdate >= DATE '1996-06-01' ` +
		`GROUP BY l_suppkey ORDER BY 2 DESC LIMIT 10`,
}

// TestSamplePricingTracksRuns holds the optimizer's sample pricing to the
// runs it predicts: on a 65,536-row lineitem with a columnar copy and an
// index, every ROW, COL and RM estimate of the scan workload's statements
// is within 1.25x of the path's measured run on a cold machine, and
// pricing leaves the machine's counters and arena as they were.
func TestSamplePricingTracksRuns(t *testing.T) {
	const rows = 64 * 1024
	sys := engine.MustSystem(engine.DefaultSystemConfig())
	sch := tpch.LineitemSchema()
	base := sys.Arena.Alloc(int64(rows * sch.RowBytes()))
	tbl, err := tpch.NewLineitem(rows, 1, table.WithBaseAddr(base))
	if err != nil {
		t.Fatal(err)
	}
	store, err := colstore.FromTable(tbl, sys.Arena)
	if err != nil {
		t.Fatal(err)
	}
	shipdate, _ := sch.Lookup("l_shipdate")
	idx, err := index.Build(tbl, shipdate, sys.Arena)
	if err != nil {
		t.Fatal(err)
	}
	opt := &engine.Optimizer{Tbl: tbl, Sys: sys, Store: store, Index: idx}
	for name, text := range samplePricingStatements {
		root, err := sql.Compile(text, sch)
		if err != nil {
			t.Fatal(err)
		}
		q, _, err := engine.FromPlan(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range []engine.Source{
			&engine.RowEngine{Tbl: tbl, Sys: sys},
			&engine.ColEngine{Store: store, Sys: sys},
			&engine.RMEngine{Tbl: tbl, Sys: sys},
		} {
			hw, next := sys.HW(), sys.Arena.Next()
			est, ok := opt.EstimateFor(src.Name(), q)
			if !ok {
				t.Fatalf("%s/%s: not priced: %s", name, src.Name(), est.Reason)
			}
			if sys.HW() != hw || sys.Arena.Next() != next {
				t.Fatalf("%s/%s: pricing moved the machine's counters or arena", name, src.Name())
			}
			sys.ResetState()
			res, err := engine.Run(src, q)
			if err != nil {
				t.Fatal(err)
			}
			qe := plan.QError(est.Cycles, float64(res.Breakdown.TotalCycles))
			t.Logf("%s/%s: est %.0f act %d q-error %.3f (sel est %.3f act %.3f)", name, src.Name(),
				est.Cycles, res.Breakdown.TotalCycles, qe, est.Selectivity,
				float64(res.RowsPassed)/float64(res.RowsScanned))
			if qe > 1.25 {
				t.Errorf("%s/%s: estimate %.0f cycles vs %d measured, q-error %.2f > 1.25",
					name, src.Name(), est.Cycles, res.Breakdown.TotalCycles, qe)
			}
		}
	}
}

// TestSamplePriceIsPure pins what makes a memoized price safe to share: it
// is a function of the table's first rows, the query, the path and offload
// alone. Two machines price alike, concurrently too; appending rows past
// the sample leaves the sample's price and scales the estimate by the row
// count; and the memoized estimate equals a fresh machine's.
func TestSamplePriceIsPure(t *testing.T) {
	const rows = 4096
	build := func() (*engine.System, *table.Table) {
		sys := engine.MustSystem(engine.DefaultSystemConfig())
		sch := tpch.LineitemSchema()
		base := sys.Arena.Alloc(int64(2 * rows * sch.RowBytes()))
		tbl, err := tpch.NewLineitem(rows, 1, table.WithBaseAddr(base), table.WithCapacity(2*rows))
		if err != nil {
			t.Fatal(err)
		}
		return sys, tbl
	}
	var qs []engine.Query
	for _, text := range samplePricingStatements {
		root, err := sql.Compile(text, tpch.LineitemSchema())
		if err != nil {
			t.Fatal(err)
		}
		q, _, err := engine.FromPlan(root)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	prices := func(opt *engine.Optimizer) []float64 {
		var out []float64
		for _, q := range qs {
			for _, path := range []string{"ROW", "RM"} {
				for _, off := range []bool{false, true} {
					opt.Offload = off
					est, ok := opt.EstimateFor(path, q)
					if !ok {
						t.Fatalf("%s not priced: %s", path, est.Reason)
					}
					out = append(out, est.Cycles)
				}
			}
		}
		return out
	}

	sysA, tblA := build()
	want := prices(&engine.Optimizer{Tbl: tblA, Sys: sysA})
	sysB, tblB := build()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := prices(&engine.Optimizer{Tbl: tblB, Sys: sysB}); !slices.Equal(got, want) {
				t.Errorf("a second machine priced %v, want %v", got, want)
			}
		}()
	}
	wg.Wait()

	for r := 0; r < rows; r++ {
		if _, err := tblA.AppendRaw(0, tblA.RowPayload(r)); err != nil {
			t.Fatal(err)
		}
	}
	grown := prices(&engine.Optimizer{Tbl: tblA, Sys: sysA})
	fresh := prices(&engine.Optimizer{Tbl: tblA, Sys: engine.MustSystem(engine.DefaultSystemConfig())})
	for i := range want {
		if grown[i] != fresh[i] {
			t.Errorf("price %d: memoized %.0f after appends, a fresh machine %.0f", i, grown[i], fresh[i])
		}
		if math.Abs(grown[i]-2*want[i]) > 1e-6*want[i] && i%2 == 0 {
			t.Errorf("price %d: %.0f after doubling the rows, want twice %.0f", i, grown[i], want[i])
		}
	}
}
