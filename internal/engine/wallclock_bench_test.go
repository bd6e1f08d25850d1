package engine_test

import (
	"testing"

	"rfabric/internal/colstore"
	"rfabric/internal/engine"
	"rfabric/internal/fabric"
	"rfabric/internal/geometry"
	"rfabric/internal/sql"
	"rfabric/internal/table"
	"rfabric/internal/tpch"
)

// Wall-clock benchmarks for the batch pipeline. The modeled cycles are
// pinned by the execution goldens; these benchmarks measure what the
// simulation costs on the host — time and allocations per executed query.
// Run with:
//
//	go test ./internal/engine -run '^$' -bench Wallclock -benchmem
//
// The benchmarks live in package engine_test so they can use the TPC-H
// generator and the SQL front end, which both import engine.

const benchRows = 64 * 1024

// compileBench lowers one of the TPC-H query texts against lineitem.
func compileBench(b *testing.B, text string) engine.Query {
	b.Helper()
	root, err := sql.Compile(text, tpch.LineitemSchema())
	if err != nil {
		b.Fatal(err)
	}
	q, _, err := engine.FromPlan(root)
	if err != nil {
		b.Fatal(err)
	}
	return q
}

func benchLineitem(b *testing.B, sys *engine.System) *table.Table {
	b.Helper()
	sch := tpch.LineitemSchema()
	base := sys.Arena.Alloc(int64(benchRows * sch.RowBytes()))
	tbl, err := tpch.NewLineitem(benchRows, 1, table.WithBaseAddr(base))
	if err != nil {
		b.Fatal(err)
	}
	return tbl
}

// scanQuery is the full-table scan: every row passes and every column is
// consumed, so every value is decoded, charged and hashed.
func scanQuery() engine.Query {
	sch := tpch.LineitemSchema()
	proj := make([]int, sch.NumColumns())
	for i := range proj {
		proj[i] = i
	}
	return engine.Query{Projection: proj}
}

// runWallclock times eng executing q, with sys reset before each run.
func runWallclock(b *testing.B, q engine.Query, eng engine.Executor, sys *engine.System) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys.ResetState()
		b.StartTimer()
		if _, err := eng.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRowScanWallclock(b *testing.B) {
	sys := engine.MustSystem(engine.DefaultSystemConfig())
	tbl := benchLineitem(b, sys)
	runWallclock(b, scanQuery(), &engine.RowEngine{Tbl: tbl, Sys: sys}, sys)
}

// colScanSQL is a two-predicate projection: on COL, a first and a refine
// bitmap pass over the column arrays, then reconstruction of the
// qualifying rows' three columns.
const colScanSQL = `SELECT l_orderkey, l_extendedprice, l_shipdate FROM lineitem
WHERE l_quantity < 24 AND l_discount >= 0.05`

func BenchmarkColScanWallclock(b *testing.B) {
	sys := engine.MustSystem(engine.DefaultSystemConfig())
	tbl := benchLineitem(b, sys)
	store, err := colstore.FromTable(tbl, sys.Arena)
	if err != nil {
		b.Fatal(err)
	}
	runWallclock(b, compileBench(b, colScanSQL), &engine.ColEngine{Store: store, Sys: sys}, sys)
}

func BenchmarkRMScanWallclock(b *testing.B) {
	sys := engine.MustSystem(engine.DefaultSystemConfig())
	tbl := benchLineitem(b, sys)
	runWallclock(b, scanQuery(), &engine.RMEngine{Tbl: tbl, Sys: sys, PushSelection: true}, sys)
}

func BenchmarkQ6Wallclock(b *testing.B) {
	sys := engine.MustSystem(engine.DefaultSystemConfig())
	tbl := benchLineitem(b, sys)
	runWallclock(b, compileBench(b, tpch.Q6SQL), &engine.RowEngine{Tbl: tbl, Sys: sys}, sys)
}

func BenchmarkParScanWallclock(b *testing.B) {
	sys := engine.MustSystem(engine.DefaultSystemConfig())
	tbl := benchLineitem(b, sys)
	runWallclock(b, scanQuery(), &engine.ParallelEngine{Tbl: tbl, Sys: sys, Par: engine.ParallelConfig{Workers: 8}}, sys)
}

// topNSQL is the top-N shape: a GROUP BY with ~10k groups (one per
// supplier) whose ORDER BY … LIMIT runs as sinks over the grouped output.
const topNSQL = `SELECT l_suppkey, SUM(l_extendedprice), COUNT(*) FROM lineitem
WHERE l_shipdate >= DATE '1996-06-01' GROUP BY l_suppkey ORDER BY 2 DESC LIMIT 10`

// BenchmarkGroupByWallclock measures hash GROUP BY: the Q1-class query (4
// groups, derived aggregates) and the top-N query (~10k groups, sort and
// limit sinks), on ROW, RM, and COL. The sinks run as the façade runs them:
// the pipeline finishes them on its group table, and ApplySinks charges
// the sort.
func BenchmarkGroupByWallclock(b *testing.B) {
	sys := engine.MustSystem(engine.DefaultSystemConfig())
	tbl := benchLineitem(b, sys)
	store, err := colstore.FromTable(tbl, sys.Arena)
	if err != nil {
		b.Fatal(err)
	}
	st, err := sql.Parse(topNSQL)
	if err != nil {
		b.Fatal(err)
	}
	root, err := sql.Lower(st, tbl.Schema())
	if err != nil {
		b.Fatal(err)
	}
	topN, _, err := engine.FromPlan(root)
	if err != nil {
		b.Fatal(err)
	}
	queries := []struct {
		name string
		q    engine.Query
	}{{"q1", compileBench(b, tpch.Q1SQL)}, {"top-n", topN}}
	engines := []struct {
		name string
		eng  engine.Source
	}{
		{"ROW", &engine.RowEngine{Tbl: tbl, Sys: sys}},
		{"RM", &engine.RMEngine{Tbl: tbl, Sys: sys}},
		{"COL", &engine.ColEngine{Store: store, Sys: sys}},
	}
	for _, qc := range queries {
		for _, ec := range engines {
			b.Run(qc.name+"/"+ec.name, func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					sys.ResetState()
					b.StartTimer()
					res, err := engine.Run(ec.eng, qc.q)
					if err != nil {
						b.Fatal(err)
					}
					engine.ApplySinks(res, qc.q.Sinks)
				}
			})
		}
	}
}

// groupFinishSQL groups the whole table on l_suppkey: about 10,000 groups
// at benchRows.
const groupFinishSQL = `SELECT l_suppkey, SUM(l_extendedprice), COUNT(*) FROM lineitem
GROUP BY l_suppkey ORDER BY 2 DESC`

// BenchmarkGroupFinishWallclock times the grouped-result finisher alone.
// One RM fold is left unfinished (RunPartial); each iteration then finishes
// its group table, ordering every group by SUM DESC and boxing them all
// (order-by), or keeping and boxing the first 10 (top-10).
func BenchmarkGroupFinishWallclock(b *testing.B) {
	sys := engine.MustSystem(engine.DefaultSystemConfig())
	tbl := benchLineitem(b, sys)
	root, err := sql.Compile(groupFinishSQL, tbl.Schema())
	if err != nil {
		b.Fatal(err)
	}
	q, _, err := engine.FromPlan(root)
	if err != nil {
		b.Fatal(err)
	}
	part, err := engine.RunPartial(&engine.RMEngine{Tbl: tbl, Sys: sys}, q)
	if err != nil {
		b.Fatal(err)
	}
	groups := len(engine.FinishPartial(part, q).Groups)
	top := q
	top.Sinks.Limit, top.Sinks.HasLimit = 10, true
	for _, c := range []struct {
		name string
		q    engine.Query
		rows int
	}{{"order-by", q, groups}, {"top-10", top, 10}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res := engine.FinishPartial(part, c.q); len(res.Groups) != c.rows {
					b.Fatalf("%d rows, want %d", len(res.Groups), c.rows)
				}
			}
			b.ReportMetric(float64(groups), "groups")
		})
	}
}

// BenchmarkSequenceCold and BenchmarkSequenceWarm measure the group cache's
// host-time effect on a repeated Q6-class scan: cold rebuilds the ephemeral
// view every iteration (no cache), warm replays the resident group after one
// priming run. The modeled-cycle savings are pinned by the sequence
// experiment; these report the wall-clock and allocation side.
func BenchmarkSequenceCold(b *testing.B) {
	sys := engine.MustSystem(engine.DefaultSystemConfig())
	tbl := benchLineitem(b, sys)
	eng := &engine.RMEngine{Tbl: tbl, Sys: sys}
	q := compileBench(b, tpch.Q6SQL)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys.ResetState()
		b.StartTimer()
		if _, err := eng.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSequenceWarm(b *testing.B) {
	sys := engine.MustSystem(engine.DefaultSystemConfig())
	tbl := benchLineitem(b, sys)
	cache := fabric.NewGroupCache(64<<20, sys.Arena)
	eng := &engine.RMEngine{Tbl: tbl, Sys: sys, Cache: cache}
	q := compileBench(b, tpch.Q6SQL)
	if _, err := eng.Execute(q); err != nil { // prime the group
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys.ResetState()
		b.StartTimer()
		res, err := eng.Execute(q)
		if err != nil {
			b.Fatal(err)
		}
		if !res.CacheWarm {
			b.Fatal("warm benchmark ran cold")
		}
	}
}

// BenchmarkJoinQ3Wallclock measures the hash-join pipeline end to end on
// RM sources: the Q3-class lineitem ⋈ orders query and the two-stage
// Q10-class lineitem ⋈ orders ⋈ customer query, lowered from SQL, each
// executed serially and under the morsel-parallel executor. Run with
// -benchmem to read the allocations.
func BenchmarkJoinQ3Wallclock(b *testing.B) {
	sys := engine.MustSystem(engine.DefaultSystemConfig())
	li := benchLineitem(b, sys)
	nOrders := tpch.OrdersFor(benchRows)
	osch := tpch.OrdersSchema()
	ord, err := tpch.NewOrders(nOrders, 2,
		table.WithBaseAddr(sys.Arena.Alloc(int64(nOrders*osch.RowBytes()))))
	if err != nil {
		b.Fatal(err)
	}
	nCust := tpch.CustomersFor(nOrders)
	csch := tpch.CustomerSchema()
	cust, err := tpch.NewCustomer(nCust, 3,
		table.WithBaseAddr(sys.Arena.Alloc(int64(nCust*csch.RowBytes()))))
	if err != nil {
		b.Fatal(err)
	}
	tables := map[string]*table.Table{"lineitem": li, "orders": ord, "customer": cust}
	lookup := func(name string) (*geometry.Schema, error) { return tables[name].Schema(), nil }
	for _, q := range []struct{ name, sql string }{{"q3", tpch.Q3SQL}, {"q10", tpch.Q10SQL}} {
		st, err := sql.Parse(q.sql)
		if err != nil {
			b.Fatal(err)
		}
		root, err := sql.LowerCatalog(st, lookup)
		if err != nil {
			b.Fatal(err)
		}
		jp, _, err := engine.FromJoinPlan(root, lookup)
		if err != nil {
			b.Fatal(err)
		}
		builds := func() []engine.Source {
			out := make([]engine.Source, len(jp.Stages))
			for i, st := range jp.Stages {
				out[i] = &engine.RMEngine{Tbl: tables[st.Side.Table], Sys: sys}
			}
			return out
		}
		b.Run(q.name+"/serial", func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys.ResetState()
				b.StartTimer()
				ex := &engine.JoinExec{
					Plan:   jp,
					Probe:  &engine.RMEngine{Tbl: li, Sys: sys},
					Builds: builds(),
				}
				if _, err := ex.Execute(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(q.name+"/parallel", func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys.ResetState()
				b.StartTimer()
				ex := &engine.ParallelJoinExec{
					Plan:     jp,
					ProbeTbl: li,
					Sys:      sys,
					Par:      engine.ParallelConfig{Workers: 8},
					Builds:   builds(),
				}
				if _, err := ex.Execute(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
