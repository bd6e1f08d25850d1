package engine

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"rfabric/internal/expr"
	"rfabric/internal/geometry"
	"rfabric/internal/obs"
	"rfabric/internal/plan"
	"rfabric/internal/table"
)

// The batch pipeline charges its loads to the cache hierarchy from a
// per-scan replay goroutine (loadBuf). The hand-off must be invisible: every
// access path, traced or not, must leave the Result, Breakdown, hierarchy,
// DRAM and fabric state, span tree and timeline of its golden entry,
// recorded from the row-at-a-time interpreter, which charged every load
// inline; and no replay goroutine may outlive its scan. Run under -race,
// the test also checks that nothing touches the hierarchy or DRAM while the
// goroutine owns them.

// replayCols is the narrow fixture schema: one column of each type.
var replayCols = []geometry.Column{
	{Name: "k", Type: geometry.Int64, Width: 8},
	{Name: "price", Type: geometry.Float64, Width: 8},
	{Name: "qty", Type: geometry.Int32, Width: 4},
	{Name: "tag", Type: geometry.Char, Width: 8},
	{Name: "day", Type: geometry.Date, Width: 4},
	{Name: "disc", Type: geometry.Float64, Width: 8},
}

// replayValue is row r's deterministic value for column c. Column 0 is a
// permutation of 0..rows-1 (an index key); the rest cycle small domains.
func replayValue(col geometry.Column, r, c, rows int) table.Value {
	v := r*(7+2*c) + c
	switch col.Type {
	case geometry.Int64:
		if c == 0 {
			return table.I64(int64(r * 7 % rows))
		}
		return table.I64(int64(v % 100))
	case geometry.Int32:
		return table.I32(int32(v % 50))
	case geometry.Float64:
		return table.F64(float64(v%1000) / 8)
	case geometry.Char:
		return table.Str(genWords[v%len(genWords)])
	default:
		return table.DateV(int32(v % 365))
	}
}

// replayTable builds and fills one table on sys. MVCC rows get begin
// timestamps 1-3, and every fourth row a later end timestamp.
func replayTable(t *testing.T, sys *System, name string, sch *geometry.Schema, rows int, mvcc bool) *table.Table {
	t.Helper()
	stride := sch.RowBytes()
	opts := []table.Option{table.WithCapacity(rows)}
	if mvcc {
		stride += table.MVCCHeaderBytes
		opts = append(opts, table.WithMVCC())
	}
	opts = append(opts, table.WithBaseAddr(sys.Arena.Alloc(int64(rows*stride))))
	tbl, err := table.New(name, sch, opts...)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]table.Value, sch.NumColumns())
	for r := 0; r < rows; r++ {
		for c := range vals {
			vals[c] = replayValue(sch.Column(c), r, c, rows)
		}
		begin := uint64(1 + r%3)
		idx := tbl.MustAppend(begin, vals...)
		if mvcc && r%4 == 0 {
			if err := tbl.SetEndTS(idx, begin+uint64(1+r%2)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tbl
}

// replayTwin builds one fixture: a probe table (and, for joins, an
// orders-like build table keyed on column 0) with its column stores and
// index, on a fresh System whose fabric buffer is bufBytes (0 keeps the
// default).
func replayTwin(t *testing.T, sch *geometry.Schema, rows int, mvcc bool, buildRows, bufBytes int) *joinTwin {
	t.Helper()
	cfg := DefaultSystemConfig()
	if bufBytes > 0 {
		cfg.Fabric.BufferBytes = bufBytes
	}
	sys := MustSystem(cfg)
	f := &joinTwin{sys: sys, tables: map[string]*table.Table{}, probe: "probe"}
	f.tables["probe"] = replayTable(t, sys, "probe", sch, rows, mvcc)
	if buildRows > 0 {
		orders := geometry.MustSchema(
			geometry.Column{Name: "okey", Type: geometry.Int64, Width: 8},
			geometry.Column{Name: "odate", Type: geometry.Date, Width: 4},
			geometry.Column{Name: "prio", Type: geometry.Int32, Width: 4},
		)
		f.tables["build"] = replayTable(t, sys, "build", orders, buildRows, false)
	}
	f.addStructures(t, mvcc)
	return f
}

func TestReplayHandOffMatchesInline(t *testing.T) {
	g := openGoldens(t, "replay")
	narrow := geometry.MustSchema(replayCols...)
	var wideCols []geometry.Column
	for i := 0; i < 16; i++ {
		c := replayCols[1+i%(len(replayCols)-1)]
		if i == 0 {
			c = replayCols[0]
		}
		c.Name = fmt.Sprintf("w%02d", i)
		wideCols = append(wideCols, c)
	}
	wide := geometry.MustSchema(wideCols...)
	const rows = 5000
	snap := uint64(2)
	twoPreds := expr.Conjunction{
		{Col: 1, Op: expr.Lt, Operand: table.F64(90)},
		{Col: 2, Op: expr.Ge, Operand: table.I32(10)},
	}
	grouped := Query{
		Selection:  twoPreds,
		GroupBy:    []int{3},
		Aggregates: []AggTerm{{Kind: expr.Count}, {Kind: expr.Sum, Arg: expr.ColRef{Col: 5}}},
	}
	projected := Query{Selection: twoPreds, Projection: []int{0, 3, 4}}
	threePreds := append(append(expr.Conjunction(nil), twoPreds...), expr.Predicate{Col: 4, Op: expr.Lt, Operand: table.DateV(200)})
	dense := Query{GroupBy: []int{2}, Aggregates: []AggTerm{{Kind: expr.Count}, {Kind: expr.Sum, Arg: expr.ColRef{Col: 1}}}}
	allCols := Query{Projection: make([]int, wide.NumColumns())}
	for i := range allCols.Projection {
		allCols.Projection[i] = i
	}

	type run func(t *testing.T, f *joinTwin, tr *obs.Tracer) (*Result, error)

	// A Q3-class join: probe (lineitem-like) against build (orders-like)
	// on the key, each side filtered by its selection when it has one,
	// grouped on build columns, summing price*(1-disc).
	q3 := func(probeSel, buildSel expr.Conjunction) *plan.Node {
		li, ord := plan.NewScan("probe", "", nil), plan.NewScan("build", "", nil)
		if probeSel != nil {
			li = li.Filter(probeSel)
		}
		if buildSel != nil {
			ord = ord.Filter(buildSel)
		}
		revenue := expr.Binary{Op: expr.Mul, L: expr.ColRef{Col: 1},
			R: expr.Binary{Op: expr.Sub, L: expr.Const{V: 1}, R: expr.ColRef{Col: 5}}}
		return li.Join(ord, 0, 0).Aggregate([]int{0, 7, 8}, []plan.Agg{{Kind: expr.Sum, Arg: revenue}, {Kind: expr.Count}})
	}
	q3Join := func(v joinVariant) run {
		return func(t *testing.T, f *joinTwin, tr *obs.Tracer) (*Result, error) {
			jp := f.lower(t, nil)
			ex := &JoinExec{Plan: jp, Probe: f.source(f.sys, v, jp.Probe.Table, true, tr)}
			for _, st := range jp.Stages {
				ex.Builds = append(ex.Builds, f.source(f.sys, v, st.Side.Table, false, tr))
			}
			return ex.Execute()
		}
	}

	single := func(q Query, mk func(f *joinTwin, tr *obs.Tracer) Source) run {
		return func(t *testing.T, f *joinTwin, tr *obs.Tracer) (*Result, error) {
			return Run(mk(f, tr), q)
		}
	}
	cases := []struct {
		name string
		fx   func(t *testing.T) *joinTwin
		run  run
	}{
		{"ROW", func(t *testing.T) *joinTwin { return replayTwin(t, narrow, rows, false, 0, 0) },
			single(projected, func(f *joinTwin, tr *obs.Tracer) Source {
				return &RowEngine{Tbl: f.tables["probe"], Sys: f.sys, Tracer: tr}
			})},
		{"COL", func(t *testing.T) *joinTwin { return replayTwin(t, narrow, rows, false, 0, 0) },
			single(grouped, func(f *joinTwin, tr *obs.Tracer) Source {
				return &ColEngine{Store: f.stores["probe"], Sys: f.sys, Tracer: tr}
			})},
		{"RM-chunks", func(t *testing.T) *joinTwin { return replayTwin(t, narrow, rows, false, 0, 24<<10) },
			single(grouped, func(f *joinTwin, tr *obs.Tracer) Source {
				return &RMEngine{Tbl: f.tables["probe"], Sys: f.sys, Tracer: tr}
			})},
		// Three bitmap passes over the column store: a first pass, then
		// two refine passes that interleave the value and bitmap streams,
		// then reconstruction of the scattered qualifying rows.
		{"COL-refine", func(t *testing.T) *joinTwin { return replayTwin(t, narrow, rows, false, 0, 0) },
			single(Query{Selection: threePreds, Projection: []int{0, 3, 5}}, func(f *joinTwin, tr *obs.Tracer) Source {
				return &ColEngine{Store: f.stores["probe"], Sys: f.sys, Tracer: tr}
			})},
		// No selection: reconstruction visits every row, one run per batch.
		{"COL-dense", func(t *testing.T) *joinTwin { return replayTwin(t, narrow, rows, false, 0, 0) },
			single(dense, func(f *joinTwin, tr *obs.Tracer) Source {
				return &ColEngine{Store: f.stores["probe"], Sys: f.sys, Tracer: tr}
			})},
		// A bare COUNT(*) reads no column: RM counts over the narrowest.
		{"RM-count", func(t *testing.T) *joinTwin { return replayTwin(t, narrow, rows, false, 0, 24<<10) },
			single(Query{Aggregates: []AggTerm{{Kind: expr.Count}}}, func(f *joinTwin, tr *obs.Tracer) Source {
				return &RMEngine{Tbl: f.tables["probe"], Sys: f.sys, Tracer: tr}
			})},
		{"IDX", func(t *testing.T) *joinTwin { return replayTwin(t, narrow, rows, false, 0, 0) },
			single(Query{Selection: expr.Conjunction{{Col: 0, Op: expr.Ge, Operand: table.I64(700)}}, Projection: []int{1, 3}},
				func(f *joinTwin, tr *obs.Tracer) Source {
					return &IndexEngine{Tbl: f.tables["probe"], Sys: f.sys, Idx: f.idx, Tracer: tr}
				})},
		// Index order scatters the row ids, so every row opens a run of
		// five streams.
		{"IDX-scatter", func(t *testing.T) *joinTwin { return replayTwin(t, narrow, rows, false, 0, 0) },
			single(Query{Selection: expr.Conjunction{{Col: 0, Op: expr.Ge, Operand: table.I64(10)}}, Projection: []int{1, 2, 4, 5}},
				func(f *joinTwin, tr *obs.Tracer) Source {
					return &IndexEngine{Tbl: f.tables["probe"], Sys: f.sys, Idx: f.idx, Tracer: tr}
				})},
		{"MVCC", func(t *testing.T) *joinTwin { return replayTwin(t, narrow, rows, true, 0, 0) },
			single(Query{Selection: twoPreds, Projection: []int{0, 3}, Snapshot: &snap},
				func(f *joinTwin, tr *obs.Tracer) Source {
					return &RowEngine{Tbl: f.tables["probe"], Sys: f.sys, Tracer: tr}
				})},
		{"PAR", func(t *testing.T) *joinTwin { return replayTwin(t, narrow, rows, false, 0, 0) },
			single(grouped, func(f *joinTwin, tr *obs.Tracer) Source {
				return &ParallelEngine{Tbl: f.tables["probe"], Sys: f.sys, Tracer: tr,
					Par: ParallelConfig{Workers: 2, MorselRows: 1500}}
			})},
		{"Q3-join", func(t *testing.T) *joinTwin {
			f := replayTwin(t, narrow, rows, false, 1200, 32<<10)
			f.root = q3(expr.Conjunction{{Col: 4, Op: expr.Gt, Operand: table.DateV(60)}},
				expr.Conjunction{{Col: 1, Op: expr.Lt, Operand: table.DateV(300)}})
			return f
		}, q3Join(viaRM)},
		// Both sides on COL: the probe's two predicates run as a first and
		// a refine bitmap pass before its sink reads the qualifying rows;
		// the unfiltered build side's sink reads a dense columnar decode.
		{"Q3-join-COL", func(t *testing.T) *joinTwin {
			f := replayTwin(t, narrow, rows, false, 1200, 0)
			f.root = q3(expr.Conjunction{
				{Col: 4, Op: expr.Gt, Operand: table.DateV(60)},
				{Col: 2, Op: expr.Ge, Operand: table.I32(10)},
			}, nil)
			return f
		}, q3Join(viaCOL)},
		{"wide", func(t *testing.T) *joinTwin { return replayTwin(t, wide, 3000, false, 0, 0) },
			single(allCols, func(f *joinTwin, tr *obs.Tracer) Source {
				return &RowEngine{Tbl: f.tables["probe"], Sys: f.sys, Tracer: tr}
			})},
	}

	for _, tc := range cases {
		for _, timeline := range []bool{false, true} {
			name := tc.name + "/spans"
			if timeline {
				name = tc.name + "/timeline"
			}
			t.Run(name, func(t *testing.T) {
				before := runtime.NumGoroutine()
				f := tc.fx(t)
				tr := obs.NewTracer("query")
				var tl *obs.Timeline
				if timeline {
					tl = obs.NewTimeline(997, f.sys.Cfg.DRAM.Banks)
					tr.AttachTimeline(tl)
					f.sys.AttachTimeline(tl)
					defer f.sys.DetachTimeline()
				}
				res, err := tc.run(t, f, tr)
				if err != nil {
					t.Fatal(err)
				}
				out := twinRun{res: res, spans: spansJSON(t, tr)}
				if tl != nil {
					tl.Finish(res.Breakdown.TotalCycles)
					out.timeline = mustJSON(t, tl)
				}
				g.check(t, name, goldenRun{name: tc.name, twinRun: out, hw: f.sys.HW()})
				switch tc.name {
				case "RM-chunks", "Q3-join":
					if c := f.sys.Fab.Stats().Chunks; c < 3 {
						t.Fatalf("%s ran %d fabric chunks, want several", name, c)
					}
				case "wide":
					if per := int(f.sys.Hier.Stats().Loads / 3000); per*vecBatchRows <= replayBufLoads {
						t.Fatalf("%d loads per row do not overflow a replay buffer within a batch", per)
					}
				}
				requireGoroutines(t, before)
			})
		}
	}
}

// requireGoroutines waits briefly for the goroutine count to settle back to
// want: a replay goroutine acknowledges its stop just before it returns.
func requireGoroutines(t *testing.T, want int) {
	t.Helper()
	got := runtime.NumGoroutine()
	for i := 0; got > want && i < 200; i++ {
		time.Sleep(5 * time.Millisecond)
		got = runtime.NumGoroutine()
	}
	if got > want {
		t.Fatalf("%d goroutines outlive the scans (started with %d)", got-want, want)
	}
}
