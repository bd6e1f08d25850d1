package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rfabric/internal/colstore"
	"rfabric/internal/expr"
	"rfabric/internal/fabric"
	"rfabric/internal/geometry"
	"rfabric/internal/index"
	"rfabric/internal/table"
)

// The vectorized scan paths promise more than result equivalence: the
// charge-replay loop must issue the exact Load sequence and compute charges
// of the scalar interpreter, so the full modeled Breakdown and the cache
// hierarchy statistics must match bit for bit. Because the RM path allocates
// fabric delivery windows from the system arena per execution, comparing two
// executions exactly requires two identically built (system, table) pairs —
// a shared system would hand the second run different addresses.

// vecFixture is one deterministic (system, table, column store, index)
// build.
type vecFixture struct {
	sys   *System
	tbl   *table.Table
	store *colstore.Store
	idx   *index.BTree
}

// buildVecFixture reconstructs the identical fixture for a seed. Two calls
// with the same arguments produce byte-identical tables at identical
// simulated addresses on independent systems. The COL variant also gets a
// column store, the IDX variant a B+tree on column 0 (always BIGINT).
func buildVecFixture(t *testing.T, seed int64, mvcc bool, rows int, variant string) *vecFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sch := genSchema(rng)
	sys := MustSystem(DefaultSystemConfig())
	stride := sch.RowBytes()
	if mvcc {
		stride += table.MVCCHeaderBytes
	}
	base := sys.Arena.Alloc(int64(rows * stride))
	opts := []table.Option{table.WithCapacity(rows), table.WithBaseAddr(base)}
	if mvcc {
		opts = append(opts, table.WithMVCC())
	}
	tbl, err := table.New("vecprop", sch, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rows; r++ {
		vals := make([]table.Value, sch.NumColumns())
		for c := range vals {
			vals[c] = genValue(rng, sch.Column(c))
		}
		begin := uint64(1 + rng.Intn(3))
		idx := tbl.MustAppend(begin, vals...)
		if mvcc && rng.Intn(4) == 0 {
			if err := tbl.SetEndTS(idx, begin+uint64(1+rng.Intn(3))); err != nil {
				t.Fatal(err)
			}
		}
	}
	fx := &vecFixture{sys: sys, tbl: tbl}
	switch variant {
	case "COL":
		store, err := colstore.FromTable(tbl, sys.Arena)
		if err != nil {
			t.Fatal(err)
		}
		fx.store = store
	case "IDX":
		idx, err := index.Build(tbl, 0, sys.Arena)
		if err != nil {
			t.Fatal(err)
		}
		fx.idx = idx
	}
	return fx
}

// scalarExec runs a source's opened scan on the tuple-at-a-time
// interpreter: the scalar twin for sources without a ForceScalar knob.
type scalarExec struct{ src Source }

func (e scalarExec) Name() string { return e.src.Name() }

func (e scalarExec) Execute(q Query) (*Result, error) {
	sys, tr := e.src.sysTracer()
	sp := beginEngineSpan(tr, e.src.Name(), e.src.tableLabel())
	defer tr.End()
	s, err := e.src.openScan(q, sp)
	if err != nil {
		return nil, err
	}
	s.name, s.sys, s.tracer, s.sp = e.src.Name(), sys, tr, sp
	return s.runScalar(q)
}

// requireSameValue compares two values down to type, payload, and float
// bits.
func requireSameValue(a, b table.Value) bool {
	return a.Type == b.Type && a.Int == b.Int &&
		math.Float64bits(a.Float) == math.Float64bits(b.Float) && string(a.Bytes) == string(b.Bytes)
}

// requireExactMatch compares two results down to modeled cycles and float
// bits, plus the two systems' cache hierarchy statistics.
func requireExactMatch(t *testing.T, name string, scalar, vector *Result, scalarSys, vectorSys *System) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Fatalf("%s: scalar/vectorized mismatch: %s", name, fmt.Sprintf(format, args...))
	}
	if scalar.RowsScanned != vector.RowsScanned {
		fail("RowsScanned %d != %d", scalar.RowsScanned, vector.RowsScanned)
	}
	if scalar.RowsPassed != vector.RowsPassed {
		fail("RowsPassed %d != %d", scalar.RowsPassed, vector.RowsPassed)
	}
	if scalar.Checksum != vector.Checksum {
		fail("Checksum %#x != %#x", scalar.Checksum, vector.Checksum)
	}
	if len(scalar.Aggs) != len(vector.Aggs) {
		fail("Aggs len %d != %d", len(scalar.Aggs), len(vector.Aggs))
	}
	for i := range scalar.Aggs {
		if a, b := scalar.Aggs[i], vector.Aggs[i]; !requireSameValue(a, b) {
			fail("Aggs[%d] %+v != %+v", i, a, b)
		}
	}
	if len(scalar.Groups) != len(vector.Groups) {
		fail("Groups len %d != %d", len(scalar.Groups), len(vector.Groups))
	}
	for g := range scalar.Groups {
		a, b := scalar.Groups[g], vector.Groups[g]
		if a.Count != b.Count || len(a.Key) != len(b.Key) || len(a.Aggs) != len(b.Aggs) {
			fail("Groups[%d] %+v != %+v", g, a, b)
		}
		for i := range a.Key {
			if !requireSameValue(a.Key[i], b.Key[i]) {
				fail("Groups[%d].Key[%d] %+v != %+v", g, i, a.Key[i], b.Key[i])
			}
		}
		for i := range a.Aggs {
			if !requireSameValue(a.Aggs[i], b.Aggs[i]) {
				fail("Groups[%d].Aggs[%d] %+v != %+v", g, i, a.Aggs[i], b.Aggs[i])
			}
		}
	}
	if scalar.Breakdown != vector.Breakdown {
		fail("Breakdown\nscalar: %+v\nvector: %+v", scalar.Breakdown, vector.Breakdown)
	}
	if s, v := scalarSys.Hier.Stats(), vectorSys.Hier.Stats(); s != v {
		fail("hierarchy stats\nscalar: %+v\nvector: %+v", s, v)
	}
	if s, v := scalarSys.Mem.Stats(), vectorSys.Mem.Stats(); s != v {
		fail("DRAM stats\nscalar: %+v\nvector: %+v", s, v)
	}
	if s, v := scalarSys.Fab.Stats(), vectorSys.Fab.Stats(); s != v {
		fail("fabric stats\nscalar: %+v\nvector: %+v", s, v)
	}
}

// TestVectorizedMatchesScalarExactly is the charge-replay property test: for
// randomized schemas, data, and queries, the batch path of every engine
// produces the identical Result — checksum, float-bit-exact aggregates, and
// the complete modeled Breakdown — and drives the cache hierarchy through the
// identical state trajectory.
func TestVectorizedMatchesScalarExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(20230805))
	const plainTrials, mvccTrials = 40, 30
	for i := 0; i < plainTrials; i++ {
		t.Run(fmt.Sprintf("plain/%03d", i), func(t *testing.T) {
			vectorizedTrial(t, rng, false)
		})
	}
	for i := 0; i < mvccTrials; i++ {
		t.Run(fmt.Sprintf("mvcc/%03d", i), func(t *testing.T) {
			vectorizedTrial(t, rng, true)
		})
	}
}

func vectorizedTrial(t *testing.T, rng *rand.Rand, mvcc bool) {
	t.Helper()
	seed := rng.Int63()
	rows := 1 + rng.Intn(3000)

	// The query must come from fixture-independent randomness, drawn against
	// the schema both fixtures share.
	qrng := rand.New(rand.NewSource(seed ^ 0x5eed))
	schRng := rand.New(rand.NewSource(seed))
	sch := genSchema(schRng)
	var snapshot *uint64
	if mvcc {
		ts := uint64(qrng.Intn(6))
		snapshot = &ts
	}
	q := genQuery(qrng, sch, snapshot)
	if err := q.Validate(sch); err != nil {
		t.Fatalf("generated query invalid: %v", err)
	}
	// The IDX variant needs a selection on the indexed column.
	idxQ := q
	idxOps := []expr.CmpOp{expr.Lt, expr.Le, expr.Eq, expr.Ge, expr.Gt}
	idxQ.Selection = append(append(expr.Conjunction(nil), q.Selection...), expr.Predicate{
		Col: 0, Op: idxOps[qrng.Intn(len(idxOps))], Operand: table.I64(int64(qrng.Intn(100))),
	})

	type variant struct {
		name  string
		build func(fx *vecFixture, forceScalar bool) Executor
		// idx runs idxQ instead of q; warm runs the query once first and
		// compares the second (group-cache warm) execution.
		idx, warm bool
	}
	variants := []variant{
		{name: "ROW", build: func(fx *vecFixture, fs bool) Executor {
			return &RowEngine{Tbl: fx.tbl, Sys: fx.sys, ForceScalar: fs}
		}},
		{name: "RM", build: func(fx *vecFixture, fs bool) Executor {
			return &RMEngine{Tbl: fx.tbl, Sys: fx.sys, ForceScalar: fs}
		}},
		{name: "RM-push", build: func(fx *vecFixture, fs bool) Executor {
			return &RMEngine{Tbl: fx.tbl, Sys: fx.sys, PushSelection: true, ForceScalar: fs}
		}},
		{name: "PAR", build: func(fx *vecFixture, fs bool) Executor {
			return &ParallelEngine{Tbl: fx.tbl, Sys: fx.sys,
				Par: ParallelConfig{Workers: 4, MorselRows: 256}, ForceScalar: fs}
		}},
		{name: "IDX", idx: true, build: func(fx *vecFixture, fs bool) Executor {
			e := &IndexEngine{Tbl: fx.tbl, Sys: fx.sys, Idx: fx.idx}
			if fs {
				return scalarExec{e}
			}
			return e
		}},
		{name: "RM-warm", warm: true, build: func(fx *vecFixture, fs bool) Executor {
			return &RMEngine{Tbl: fx.tbl, Sys: fx.sys, ForceScalar: fs,
				Cache: fabric.NewGroupCache(64<<20, fx.sys.Arena)}
		}},
	}
	if !mvcc {
		variants = append(variants, variant{name: "COL", build: func(fx *vecFixture, fs bool) Executor {
			return &ColEngine{Store: fx.store, Sys: fx.sys, ForceScalar: fs}
		}})
	}

	for _, v := range variants {
		vq := q
		if v.idx {
			vq = idxQ
		}
		// Fresh twin fixtures per variant: each Execute consumes arena
		// addresses (fabric windows), so runs must not share a system.
		scalarFx := buildVecFixture(t, seed, mvcc, rows, v.name)
		vectorFx := buildVecFixture(t, seed, mvcc, rows, v.name)
		es, ev := v.build(scalarFx, true), v.build(vectorFx, false)
		runs := 1
		if v.warm {
			runs = 2
		}
		var rs, rv *Result
		for i := 0; i < runs; i++ {
			var err error
			if rs, err = es.Execute(vq); err != nil {
				t.Fatalf("%s scalar: %v\nquery: %+v", v.name, err, vq)
			}
			if rv, err = ev.Execute(vq); err != nil {
				t.Fatalf("%s vectorized: %v\nquery: %+v", v.name, err, vq)
			}
		}
		if v.warm && !rv.CacheWarm {
			t.Fatalf("%s: second run did not replay the cached group", v.name)
		}
		requireExactMatch(t, v.name, rs, rv, scalarFx.sys, vectorFx.sys)
	}
}

// TestVectorizedBoundaryValues drives the kernels through the value-domain
// corners where scalar semantics are easy to miss: CHAR operands with
// trailing and embedded NULs, NaN floats on both sides of a predicate,
// extreme integers, and negative 32-bit values (sign extension). The
// grouped queries cover the key encoding's corners: -0 and +0 and two NaN
// payloads are four DOUBLE groups, "oak" and "oak\x00" one CHAR group but
// "oak\x00x" another; plus a single group, all-distinct groups, a
// multi-key group, and an empty selection.
func TestVectorizedBoundaryValues(t *testing.T) {
	cols := []geometry.Column{
		{Name: "i64", Type: geometry.Int64, Width: 8},
		{Name: "f64", Type: geometry.Float64, Width: 8},
		{Name: "ch", Type: geometry.Char, Width: 6},
		{Name: "i32", Type: geometry.Int32, Width: 4},
	}
	sch, err := geometry.NewSchema(cols...)
	if err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	negZero := math.Copysign(0, -1)
	otherNaN := math.Float64frombits(0x7ff8000000000002)
	rowsData := [][]table.Value{
		{table.I64(math.MaxInt64), table.F64(nan), table.Str("oak"), table.I32(-1)},
		{table.I64(math.MinInt64), table.F64(0), table.Str(""), table.I32(math.MinInt32)},
		{table.I64(0), table.F64(math.Inf(1)), table.Str("oak\x00x"), table.I32(math.MaxInt32)},
		{table.I64(-1), table.F64(math.Inf(-1)), table.Str("oakum"), table.I32(0)},
		{table.I64(1), table.F64(-0.0), table.Str("o"), table.I32(7)},
		{table.I64(2), table.F64(negZero), table.Str("oak\x00"), table.I32(7)},
		{table.I64(3), table.F64(otherNaN), table.Str("oak"), table.I32(-1)},
		{table.I64(4), table.F64(negZero), table.Str(""), table.I32(7)},
	}
	aggs := []AggTerm{
		{Kind: expr.Count},
		{Kind: expr.Sum, Arg: expr.ColRef{Col: 3}},
		{Kind: expr.Min, Arg: expr.ColRef{Col: 1}},
		{Kind: expr.Avg, Arg: expr.Binary{Op: expr.Mul,
			L: expr.ColRef{Col: 0}, R: expr.ColRef{Col: 3}}},
	}
	queries := []Query{
		{Projection: []int{0, 1, 2, 3}},
		{Projection: []int{2}, Selection: expr.Conjunction{
			{Col: 2, Op: expr.Eq, Operand: table.Str("oak")}}},
		{Projection: []int{0}, Selection: expr.Conjunction{
			{Col: 2, Op: expr.Ge, Operand: table.Str("")}}},
		{Projection: []int{1}, Selection: expr.Conjunction{
			{Col: 1, Op: expr.Le, Operand: table.F64(nan)}}},
		{Projection: []int{3}, Selection: expr.Conjunction{
			{Col: 3, Op: expr.Lt, Operand: table.I32(0)},
			{Col: 0, Op: expr.Ne, Operand: table.I64(0)}}},
		{Aggregates: []AggTerm{
			{Kind: expr.Sum, Arg: expr.ColRef{Col: 1}},
			{Kind: expr.Min, Arg: expr.ColRef{Col: 0}},
			{Kind: expr.Max, Arg: expr.ColRef{Col: 3}},
			{Kind: expr.Sum, Arg: expr.Binary{Op: expr.Mul,
				L: expr.ColRef{Col: 1}, R: expr.ColRef{Col: 3}}},
		}},
		{GroupBy: []int{1}, Aggregates: aggs},    // -0/+0, NaN payloads
		{GroupBy: []int{2}, Aggregates: aggs},    // CHAR trailing vs embedded NUL
		{GroupBy: []int{2, 1}, Aggregates: aggs}, // multi-key
		{GroupBy: []int{3}, Aggregates: aggs, Selection: expr.Conjunction{ // single group
			{Col: 3, Op: expr.Eq, Operand: table.I32(7)}}},
		{GroupBy: []int{0}, Aggregates: aggs}, // all distinct
		{GroupBy: []int{0, 2}, Aggregates: aggs, Selection: expr.Conjunction{ // empty selection
			{Col: 0, Op: expr.Gt, Operand: table.I64(math.MaxInt64)}}},
	}

	build := func() *vecFixture {
		sys := MustSystem(DefaultSystemConfig())
		base := sys.Arena.Alloc(int64(len(rowsData) * sch.RowBytes()))
		tbl := table.MustNew("edge", sch, table.WithBaseAddr(base))
		for _, vals := range rowsData {
			tbl.MustAppend(0, vals...)
		}
		store, err := colstore.FromTable(tbl, sys.Arena)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := index.Build(tbl, 0, sys.Arena)
		if err != nil {
			t.Fatal(err)
		}
		return &vecFixture{sys: sys, tbl: tbl, store: store, idx: idx}
	}
	engines := map[string]func(fx *vecFixture, scalar bool) Executor{
		"ROW": func(fx *vecFixture, fs bool) Executor { return &RowEngine{Tbl: fx.tbl, Sys: fx.sys, ForceScalar: fs} },
		"RM":  func(fx *vecFixture, fs bool) Executor { return &RMEngine{Tbl: fx.tbl, Sys: fx.sys, ForceScalar: fs} },
		"COL": func(fx *vecFixture, fs bool) Executor {
			return &ColEngine{Store: fx.store, Sys: fx.sys, ForceScalar: fs}
		},
		"IDX": func(fx *vecFixture, fs bool) Executor {
			e := &IndexEngine{Tbl: fx.tbl, Sys: fx.sys, Idx: fx.idx}
			if fs {
				return scalarExec{e}
			}
			return e
		},
	}

	for qi, q := range queries {
		for _, engineName := range []string{"ROW", "RM", "COL", "IDX"} {
			eq := q
			if engineName == "IDX" {
				// Every row through the index: a full-range bound on i64.
				eq.Selection = append(expr.Conjunction{
					{Col: 0, Op: expr.Ge, Operand: table.I64(math.MinInt64)}}, q.Selection...)
			}
			scalarFx, vectorFx := build(), build()
			rs, err := engines[engineName](scalarFx, true).Execute(eq)
			if err != nil {
				t.Fatalf("query %d %s scalar: %v", qi, engineName, err)
			}
			rv, err := engines[engineName](vectorFx, false).Execute(eq)
			if err != nil {
				t.Fatalf("query %d %s vectorized: %v", qi, engineName, err)
			}
			requireExactMatch(t, fmt.Sprintf("query %d %s", qi, engineName),
				rs, rv, scalarFx.sys, vectorFx.sys)
		}
	}
}

// TestVectorizedScanAllocsConstant pins the zero-alloc batch property: once
// the engine's scratch is warm, the allocations of a full-table scan do not
// grow with the row count — i.e. the per-batch steady state allocates
// nothing (a 16k-row table runs 4x the batches of a 4k-row one). RM runs
// over a small fabric buffer, so its per-chunk layout fill repeats many
// times; COL runs its bitmap passes and reconstruction, and a dense
// reconstruction with no selection.
func TestVectorizedScanAllocsConstant(t *testing.T) {
	build := func(rows int) (*System, *table.Table) {
		rng := rand.New(rand.NewSource(7))
		cfg := DefaultSystemConfig()
		cfg.Fabric.BufferBytes = 24 << 10
		sys := MustSystem(cfg)
		sch := genSchema(rng)
		base := sys.Arena.Alloc(int64(rows * sch.RowBytes()))
		tbl := table.MustNew("alloc", sch, table.WithCapacity(rows), table.WithBaseAddr(base))
		for r := 0; r < rows; r++ {
			vals := make([]table.Value, sch.NumColumns())
			for c := range vals {
				vals[c] = genValue(rng, sch.Column(c))
			}
			tbl.MustAppend(0, vals...)
		}
		return sys, tbl
	}
	sel := expr.Conjunction{{Col: 0, Op: expr.Lt, Operand: table.I64(50)}}
	twoPreds := append(sel[:1:1], expr.Predicate{Col: 0, Op: expr.Ge, Operand: table.I64(10)})
	col := func(t *testing.T, sys *System, tbl *table.Table) Executor {
		store, err := colstore.FromTable(tbl, sys.Arena)
		if err != nil {
			t.Fatal(err)
		}
		return &ColEngine{Store: store, Sys: sys}
	}
	cases := []struct {
		name string
		q    Query
		mk   func(t *testing.T, sys *System, tbl *table.Table) Executor
	}{
		{"ROW", Query{Projection: []int{0}, Selection: sel}, func(_ *testing.T, sys *System, tbl *table.Table) Executor {
			return &RowEngine{Tbl: tbl, Sys: sys}
		}},
		{"RM", Query{Projection: []int{0, 1}, Selection: sel}, func(_ *testing.T, sys *System, tbl *table.Table) Executor {
			return &RMEngine{Tbl: tbl, Sys: sys}
		}},
		{"COL", Query{Projection: []int{0, 1}, Selection: twoPreds}, col},
		{"COL-dense", Query{Projection: []int{0, 1}}, col},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			measure := func(rows int) float64 {
				sys, tbl := build(rows)
				eng := tc.mk(t, sys, tbl)
				if _, err := eng.Execute(tc.q); err != nil { // warm the scratch
					t.Fatal(err)
				}
				return testing.AllocsPerRun(5, func() {
					sys.ResetState()
					if _, err := eng.Execute(tc.q); err != nil {
						t.Fatal(err)
					}
				})
			}

			small := measure(4 * 1024)
			large := measure(16 * 1024)
			if large > small {
				t.Fatalf("vectorized scan allocations grow with rows: %.1f allocs at 4k rows, %.1f at 16k", small, large)
			}
		})
	}
}

// TestUntracedRMScanAllocs pins what an untraced RM scan allocates once
// the engine's scratch is warm, on the cold path (a fresh ephemeral view)
// and the warm path (a group cache hit): span attributes are formatted
// only under a tracer, so an untraced scan pays for no strings. The budget
// is withheld under -race, whose runtime perturbs allocation counts.
func TestUntracedRMScanAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sys := MustSystem(DefaultSystemConfig())
	sch := genSchema(rng)
	const rows = 2048
	tbl := table.MustNew("alloc", sch, table.WithCapacity(rows),
		table.WithBaseAddr(sys.Arena.Alloc(int64(rows*sch.RowBytes()))))
	for r := 0; r < rows; r++ {
		vals := make([]table.Value, sch.NumColumns())
		for c := range vals {
			vals[c] = genValue(rng, sch.Column(c))
		}
		tbl.MustAppend(0, vals...)
	}
	q := Query{Projection: []int{0, 1}}
	for _, tc := range []struct {
		name   string
		cache  *fabric.GroupCache
		budget float64
	}{
		{"cold", nil, 44},
		{"warm", fabric.NewGroupCache(16<<20, sys.Arena), 35},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := &RMEngine{Tbl: tbl, Sys: sys, Cache: tc.cache}
			if _, err := eng.Execute(q); err != nil { // warm the scratch and the cache
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := eng.Execute(q); err != nil {
					t.Fatal(err)
				}
			})
			if !raceEnabled && allocs > tc.budget {
				t.Errorf("untraced RM scan allocates %.0f times, want <= %.0f", allocs, tc.budget)
			}
		})
	}
}
