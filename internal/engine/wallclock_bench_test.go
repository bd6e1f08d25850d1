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

// Wall-clock benchmarks for the vectorized scan paths. The modeled cycles of
// the scalar and batch paths are identical by construction (the charge-replay
// equivalence tests enforce it); these benchmarks measure the thing that DID
// change — host time and allocations per executed query. Run with:
//
//	go test ./internal/engine -run '^$' -bench Wallclock -benchmem
//
// Each sub-benchmark reports scalar/ and vectorized/ variants of the same
// engine and query, so the speedup and the allocation reduction read directly
// off the output. The benchmarks live in package engine_test so they can use
// the TPC-H generator and the SQL front end, which both import engine.

const benchRows = 64 * 1024

// compileBench lowers one of the TPC-H query texts against lineitem.
func compileBench(b *testing.B, text string) engine.Query {
	b.Helper()
	q, err := sql.Compile(text, tpch.LineitemSchema())
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
// consumed. This is the shape where tuple-at-a-time interpretation pays the
// most per row (one closure call, one boxed decode, and one hash per value),
// so it is the benchmark the vectorized path is gated on.
func scanQuery() engine.Query {
	sch := tpch.LineitemSchema()
	proj := make([]int, sch.NumColumns())
	for i := range proj {
		proj[i] = i
	}
	return engine.Query{Projection: proj}
}

func runWallclock(b *testing.B, build func(forceScalar bool) engine.Executor, reset func()) {
	b.Helper()
	for _, mode := range []struct {
		name        string
		forceScalar bool
	}{{"scalar", true}, {"vectorized", false}} {
		b.Run(mode.name, func(b *testing.B) {
			eng := build(mode.forceScalar)
			q := scanQuery()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				reset()
				b.StartTimer()
				if _, err := eng.Execute(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRowScanWallclock(b *testing.B) {
	sys := engine.MustSystem(engine.DefaultSystemConfig())
	tbl := benchLineitem(b, sys)
	runWallclock(b, func(fs bool) engine.Executor {
		return &engine.RowEngine{Tbl: tbl, Sys: sys, ForceScalar: fs}
	}, sys.ResetState)
}

func BenchmarkRMScanWallclock(b *testing.B) {
	sys := engine.MustSystem(engine.DefaultSystemConfig())
	tbl := benchLineitem(b, sys)
	runWallclock(b, func(fs bool) engine.Executor {
		return &engine.RMEngine{Tbl: tbl, Sys: sys, PushSelection: true, ForceScalar: fs}
	}, sys.ResetState)
}

func BenchmarkQ6Wallclock(b *testing.B) {
	for _, mode := range []struct {
		name        string
		forceScalar bool
	}{{"scalar", true}, {"vectorized", false}} {
		b.Run(mode.name, func(b *testing.B) {
			sys := engine.MustSystem(engine.DefaultSystemConfig())
			tbl := benchLineitem(b, sys)
			eng := &engine.RowEngine{Tbl: tbl, Sys: sys, ForceScalar: mode.forceScalar}
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
		})
	}
}

func BenchmarkParScanWallclock(b *testing.B) {
	sys := engine.MustSystem(engine.DefaultSystemConfig())
	tbl := benchLineitem(b, sys)
	runWallclock(b, func(fs bool) engine.Executor {
		return &engine.ParallelEngine{Tbl: tbl, Sys: sys,
			Par:           engine.ParallelConfig{Workers: 8},
			PushSelection: true, ForceScalar: fs}
	}, sys.ResetState)
}

// topNSQL is the top-N shape: a GROUP BY with ~10k groups (one per
// supplier) whose ORDER BY … LIMIT runs as sinks over the grouped output.
const topNSQL = `SELECT l_suppkey, SUM(l_extendedprice), COUNT(*) FROM lineitem
WHERE l_shipdate >= DATE '1996-06-01' GROUP BY l_suppkey ORDER BY 2 DESC LIMIT 10`

// BenchmarkGroupByWallclock measures hash GROUP BY on the scalar and batch
// pipelines: the Q1-class query (4 groups, derived aggregates) and the
// top-N query (~10k groups, sort and limit sinks), on ROW, RM, and COL.
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
	topN, topNSinks, err := engine.FromPlan(root)
	if err != nil {
		b.Fatal(err)
	}
	queries := []struct {
		name  string
		q     engine.Query
		sinks engine.Sinks
	}{{"q1", compileBench(b, tpch.Q1SQL), engine.Sinks{}}, {"top-n", topN, topNSinks}}
	engines := []struct {
		name  string
		build func(forceScalar bool) engine.Executor
	}{
		{"ROW", func(fs bool) engine.Executor { return &engine.RowEngine{Tbl: tbl, Sys: sys, ForceScalar: fs} }},
		{"RM", func(fs bool) engine.Executor { return &engine.RMEngine{Tbl: tbl, Sys: sys, ForceScalar: fs} }},
		{"COL", func(fs bool) engine.Executor { return &engine.ColEngine{Store: store, Sys: sys, ForceScalar: fs} }},
	}
	for _, qc := range queries {
		for _, ec := range engines {
			for _, mode := range []struct {
				name        string
				forceScalar bool
			}{{"scalar", true}, {"vectorized", false}} {
				b.Run(qc.name+"/"+ec.name+"/"+mode.name, func(b *testing.B) {
					eng := ec.build(mode.forceScalar)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						sys.ResetState()
						b.StartTimer()
						res, err := eng.Execute(qc.q)
						if err != nil {
							b.Fatal(err)
						}
						engine.ApplySinks(res, qc.sinks)
					}
				})
			}
		}
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
// executed serially and under the morsel-parallel executor. The scalar/
// variants pin every side the knob reaches to the tuple-at-a-time sinks;
// the parallel executor's morsel probes have no knob and always run
// batched, so parallel/scalar differs from parallel/batched only in its
// build sides. Run with -benchmem to read the allocation drop.
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
		for _, mode := range []struct {
			name        string
			forceScalar bool
		}{{"scalar", true}, {"batched", false}} {
			builds := func() []engine.Source {
				out := make([]engine.Source, len(jp.Stages))
				for i, st := range jp.Stages {
					out[i] = &engine.RMEngine{Tbl: tables[st.Side.Table], Sys: sys, ForceScalar: mode.forceScalar}
				}
				return out
			}
			b.Run(q.name+"/serial/"+mode.name, func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					sys.ResetState()
					b.StartTimer()
					ex := &engine.JoinExec{
						Plan:   jp,
						Probe:  &engine.RMEngine{Tbl: li, Sys: sys, ForceScalar: mode.forceScalar},
						Builds: builds(),
					}
					if _, err := ex.Execute(); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(q.name+"/parallel/"+mode.name, func(b *testing.B) {
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
}
