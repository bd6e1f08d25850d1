package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"rfabric/internal/colstore"
	"rfabric/internal/expr"
	"rfabric/internal/fabric"
	"rfabric/internal/geometry"
	"rfabric/internal/index"
	"rfabric/internal/table"
)

// The batch pipeline promises more than result equivalence: its charge
// replay issues the charge model's exact Load sequence and compute
// charges, so the full modeled Breakdown and the hierarchy, DRAM and
// fabric counters are pinned, bit for bit, by the execution goldens
// (golden_test.go). Each run gets its own identically built (system,
// table) pair, because the RM path allocates fabric delivery windows from
// the system arena per execution: the counters depend on the system's
// history.

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

// TestVectorizedMatchesScalarExactly is the charge-replay property test: for
// randomized schemas, data, and queries, the batch path of every engine
// reproduces its golden entry — checksum, float-bit-exact aggregates, the
// complete modeled Breakdown, and the hardware counters — recorded from
// the row-at-a-time interpreter it replaced.
func TestVectorizedMatchesScalarExactly(t *testing.T) {
	g := openGoldens(t, "vectorized")
	rng := rand.New(rand.NewSource(20230805))
	const plainTrials, mvccTrials = 40, 30
	for i := 0; i < plainTrials; i++ {
		t.Run(fmt.Sprintf("plain/%03d", i), func(t *testing.T) {
			vectorizedTrial(t, g, rng, false)
		})
	}
	for i := 0; i < mvccTrials; i++ {
		t.Run(fmt.Sprintf("mvcc/%03d", i), func(t *testing.T) {
			vectorizedTrial(t, g, rng, true)
		})
	}
}

func vectorizedTrial(t *testing.T, g *goldenFile, rng *rand.Rand, mvcc bool) {
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
		build func(fx *vecFixture) Executor
		// idx runs idxQ instead of q; warm runs the query once first and
		// records the second (group-cache warm) execution.
		idx, warm bool
	}
	variants := []variant{
		{name: "ROW", build: func(fx *vecFixture) Executor {
			return &RowEngine{Tbl: fx.tbl, Sys: fx.sys}
		}},
		{name: "RM", build: func(fx *vecFixture) Executor {
			return &RMEngine{Tbl: fx.tbl, Sys: fx.sys}
		}},
		{name: "RM-push", build: func(fx *vecFixture) Executor {
			return &RMEngine{Tbl: fx.tbl, Sys: fx.sys, PushSelection: true}
		}},
		{name: "PAR", build: func(fx *vecFixture) Executor {
			return &ParallelEngine{Tbl: fx.tbl, Sys: fx.sys, Par: ParallelConfig{Workers: 4, MorselRows: 256}}
		}},
		{name: "IDX", idx: true, build: func(fx *vecFixture) Executor {
			return &IndexEngine{Tbl: fx.tbl, Sys: fx.sys, Idx: fx.idx}
		}},
		{name: "RM-warm", warm: true, build: func(fx *vecFixture) Executor {
			return &RMEngine{Tbl: fx.tbl, Sys: fx.sys, Cache: fabric.NewGroupCache(64<<20, fx.sys.Arena)}
		}},
	}
	if !mvcc {
		variants = append(variants, variant{name: "COL", build: func(fx *vecFixture) Executor {
			return &ColEngine{Store: fx.store, Sys: fx.sys}
		}})
	}

	var runs []goldenRun
	for _, v := range variants {
		vq := q
		if v.idx {
			vq = idxQ
		}
		fx := buildVecFixture(t, seed, mvcc, rows, v.name)
		e := v.build(fx)
		execs := 1
		if v.warm {
			execs = 2
		}
		var res *Result
		for i := 0; i < execs; i++ {
			var err error
			if res, err = e.Execute(vq); err != nil {
				t.Fatalf("%s: %v\nquery: %+v", v.name, err, vq)
			}
		}
		if v.warm && !res.CacheWarm {
			t.Fatalf("%s: second run did not replay the cached group", v.name)
		}
		runs = append(runs, goldenRun{name: v.name, twinRun: twinRun{res: res}, hw: fx.sys.HW()})
	}
	g.check(t, subtestKey(t), runs...)
}

// TestVectorizedBoundaryValues drives the kernels through the value-domain
// corners where a boxed value's semantics are easy to miss, against their
// golden entries: CHAR operands with
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
	engines := map[string]func(fx *vecFixture) Executor{
		"ROW": func(fx *vecFixture) Executor { return &RowEngine{Tbl: fx.tbl, Sys: fx.sys} },
		"RM":  func(fx *vecFixture) Executor { return &RMEngine{Tbl: fx.tbl, Sys: fx.sys} },
		"COL": func(fx *vecFixture) Executor { return &ColEngine{Store: fx.store, Sys: fx.sys} },
		"IDX": func(fx *vecFixture) Executor { return &IndexEngine{Tbl: fx.tbl, Sys: fx.sys, Idx: fx.idx} },
	}

	g := openGoldens(t, "vectorized_boundary")
	for qi, q := range queries {
		var runs []goldenRun
		for _, engineName := range []string{"ROW", "RM", "COL", "IDX"} {
			eq := q
			if engineName == "IDX" {
				// Every row through the index: a full-range bound on i64.
				eq.Selection = append(expr.Conjunction{
					{Col: 0, Op: expr.Ge, Operand: table.I64(math.MinInt64)}}, q.Selection...)
			}
			fx := build()
			res, err := engines[engineName](fx).Execute(eq)
			if err != nil {
				t.Fatalf("query %d %s: %v", qi, engineName, err)
			}
			runs = append(runs, goldenRun{name: engineName, twinRun: twinRun{res: res}, hw: fx.sys.HW()})
		}
		g.check(t, fmt.Sprintf("query%02d", qi), runs...)
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

// TestColdRecordedScanKeepsItsChunk: a cold RM scan that records its
// column group for the group cache keeps the view's chunk buffer instead
// of copying it, so a one-chunk scan allocates one chunk buffer, not two.
// The recorded run may allocate at most half a chunk more than the same
// cold scan without a cache (the entry's directory, not its bytes). The
// comparison is withheld under -race.
func TestColdRecordedScanKeepsItsChunk(t *testing.T) {
	sch := geometry.MustSchema(
		geometry.Column{Name: "k", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "v", Type: geometry.Float64, Width: 8},
	)
	const rows = 32768 // 512 KB packed: one chunk, well under the buffer
	sys := MustSystem(DefaultSystemConfig())
	tbl := table.MustNew("c", sch, table.WithCapacity(rows),
		table.WithBaseAddr(sys.Arena.Alloc(int64(rows*sch.RowBytes()))))
	for i := 0; i < rows; i++ {
		tbl.MustAppend(0, table.I64(int64(i%61)), table.F64(float64(i%977)))
	}
	q := Query{GroupBy: []int{0}, Aggregates: []AggTerm{{Kind: expr.Sum, Arg: expr.ColRef{Col: 1}}}}
	cache := fabric.NewGroupCache(64<<20, sys.Arena)
	bytesPerRun := func(eng *RMEngine) uint64 {
		run := func() {
			cache.Invalidate(tbl) // every run is cold and records
			res, err := Run(eng, q)
			if err != nil {
				t.Fatal(err)
			}
			if res.CacheWarm {
				t.Fatal("cold run replayed a cached group")
			}
		}
		run() // warm the scratch
		const runs = 5
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&m1)
		return (m1.TotalAlloc - m0.TotalAlloc) / runs
	}
	plain := bytesPerRun(&RMEngine{Tbl: tbl, Sys: sys})
	recorded := bytesPerRun(&RMEngine{Tbl: tbl, Sys: sys, Cache: cache})
	if _, ok := cache.Peek(tbl, geometry.MustGeometry(sch, 0, 1), nil, nil); !ok {
		t.Fatal("the cold run installed no group")
	}
	const chunk = rows * 16
	t.Logf("bytes per cold run: %d without a cache, %d recording (chunk %d)", plain, recorded, chunk)
	if raceEnabled {
		return
	}
	if recorded >= plain+chunk/2 {
		t.Errorf("recording a one-chunk scan allocates %d bytes more than the plain scan, want < %d (half a chunk)",
			recorded-plain, chunk/2)
	}
}

// TestWarmReplayOfChunkedGroupMatchesCold records column groups that span
// many fabric chunks (a 4 KB delivery buffer) and replays them warm: the
// warm run returns the cold run's rows, checksum, aggregates and groups.
// Full chunks are kept by handing over the view's buffer and shorter ones
// (a pushed selection's) by copying, so a recording that aliased the
// buffer the view packs its next chunk into would replay the wrong rows.
func TestWarmReplayOfChunkedGroupMatchesCold(t *testing.T) {
	sch := geometry.MustSchema(
		geometry.Column{Name: "k", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "v", Type: geometry.Float64, Width: 8},
	)
	cfg := DefaultSystemConfig()
	cfg.Fabric.BufferBytes = 4 << 10
	sys := MustSystem(cfg)
	const rows = 3000
	tbl := table.MustNew("w", sch, table.WithCapacity(rows),
		table.WithBaseAddr(sys.Arena.Alloc(int64(rows*sch.RowBytes()))))
	for i := 0; i < rows; i++ {
		tbl.MustAppend(0, table.I64(int64(i*7%41)), table.F64(float64(i%977)-300.5))
	}
	agg := []AggTerm{{Kind: expr.Sum, Arg: expr.ColRef{Col: 1}}, {Kind: expr.Min, Arg: expr.ColRef{Col: 1}}, {Kind: expr.Count}}
	half := expr.Conjunction{{Col: 1, Op: expr.Lt, Operand: table.F64(150)}}
	for _, c := range []struct {
		name string
		q    Query
	}{
		{"grouped", Query{GroupBy: []int{0}, Aggregates: agg}},
		{"projection", Query{Projection: []int{0, 1}}},
		{"pushed-selection", Query{GroupBy: []int{0}, Aggregates: agg, Selection: half}},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng := &RMEngine{Tbl: tbl, Sys: sys, PushSelection: true, Cache: fabric.NewGroupCache(64<<20, sys.Arena)}
			cold, err := Run(eng, c.q)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := Run(eng, c.q)
			if err != nil {
				t.Fatal(err)
			}
			if cold.CacheWarm || !warm.CacheWarm {
				t.Fatalf("cold run warm=%v, second run warm=%v", cold.CacheWarm, warm.CacheWarm)
			}
			got, want := canonResult(warm), canonResult(cold)
			got.Breakdown, want.Breakdown, got.CacheWarm, want.CacheWarm = Breakdown{}, Breakdown{}, false, false
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("warm replay differs from the cold run:\nwarm %+v\ncold %+v", got, want)
			}
		})
	}
}
