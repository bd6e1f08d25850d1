package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"rfabric/internal/expr"
	"rfabric/internal/geometry"
	"rfabric/internal/mvcc"
	"rfabric/internal/plan"
	"rfabric/internal/table"
)

// --- plan-IR join edge cases -------------------------------------------------

// mkJoinTable allocates a table for the plan-IR edge-case tests.
func mkJoinTable(t *testing.T, sys *System, name string, sch *geometry.Schema, capacity int, mvcc bool) *table.Table {
	t.Helper()
	stride := sch.RowBytes()
	if mvcc {
		stride += table.MVCCHeaderBytes
	}
	opts := []table.Option{
		table.WithCapacity(capacity),
		table.WithBaseAddr(sys.Arena.Alloc(int64(capacity * stride))),
	}
	if mvcc {
		opts = append(opts, table.WithMVCC())
	}
	return table.MustNew(name, sch, opts...)
}

// simpleJoinPlan lowers probe ⋈ build on (pk = bk) with a COUNT consumer, the
// shape the edge-case tests count matches through.
func simpleJoinPlan(t *testing.T, probe, build *table.Table, pk, bk, countCol int, snapshot *uint64) *JoinPlan {
	t.Helper()
	ps := plan.NewScan(probe.Name(), "", nil)
	ps.Snapshot = snapshot
	root := ps.Join(plan.NewScan(build.Name(), "", nil), pk, bk)
	root = root.Aggregate(nil, []plan.Agg{{Kind: expr.Count, Arg: expr.ColRef{Col: countCol}}})
	jp, _, err := FromJoinPlan(root, func(name string) (*geometry.Schema, error) {
		if name == probe.Name() {
			return probe.Schema(), nil
		}
		return build.Schema(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return jp
}

func countJoin(t *testing.T, jp *JoinPlan, probe, build *table.Table, sys *System) int64 {
	t.Helper()
	sys.ResetState()
	res, err := (&JoinExec{Plan: jp,
		Probe:  &RowEngine{Tbl: probe, Sys: sys},
		Builds: []Source{&RowEngine{Tbl: build, Sys: sys}}}).Execute()
	if err != nil {
		t.Fatal(err)
	}
	return res.Aggs[0].Int
}

// TestJoinCharKeysEmbeddedNUL pins CHAR key equality semantics: trailing NUL
// padding is insignificant (keys join across CHAR widths), embedded NULs are
// significant ("a\x00b" is not "ab"), and a bare "a" differs from both.
func TestJoinCharKeysEmbeddedNUL(t *testing.T) {
	sys := MustSystem(DefaultSystemConfig())
	probeSch := geometry.MustSchema(
		geometry.Column{Name: "k", Type: geometry.Char, Width: 8},
		geometry.Column{Name: "v", Type: geometry.Int64, Width: 8},
	)
	buildSch := geometry.MustSchema(
		geometry.Column{Name: "id", Type: geometry.Char, Width: 4},
		geometry.Column{Name: "w", Type: geometry.Int64, Width: 8},
	)
	probe := mkJoinTable(t, sys, "pchar", probeSch, 8, false)
	build := mkJoinTable(t, sys, "bchar", buildSch, 8, false)

	for i, k := range []string{"ab", "a\x00b", "a", "ab"} {
		probe.MustAppend(1, table.Str(k), table.I64(int64(i)))
	}
	// One build row per distinct key; "ab" appears twice so duplicates on the
	// build side multiply matches.
	for i, k := range []string{"ab", "ab", "a\x00b", "zz"} {
		build.MustAppend(1, table.Str(k), table.I64(int64(i)))
	}

	jp := simpleJoinPlan(t, probe, build, 0, 0, 1, nil)
	// probe "ab" ×2 rows match build "ab" ×2 → 4; probe "a\x00b" matches its
	// build twin → 1; probe "a" matches nothing.
	if got := countJoin(t, jp, probe, build, sys); got != 5 {
		t.Errorf("CHAR key join counted %d matches, want 5", got)
	}
}

// TestJoinFloatKeys pins float key semantics: NaN never matches (either
// side), and -0 joins +0.
func TestJoinFloatKeys(t *testing.T) {
	sys := MustSystem(DefaultSystemConfig())
	sch := geometry.MustSchema(
		geometry.Column{Name: "k", Type: geometry.Float64, Width: 8},
		geometry.Column{Name: "v", Type: geometry.Int64, Width: 8},
	)
	bsch := geometry.MustSchema(
		geometry.Column{Name: "id", Type: geometry.Float64, Width: 8},
		geometry.Column{Name: "w", Type: geometry.Int64, Width: 8},
	)
	probe := mkJoinTable(t, sys, "pfloat", sch, 8, false)
	build := mkJoinTable(t, sys, "bfloat", bsch, 8, false)

	negZero := math.Copysign(0, -1)
	for i, k := range []float64{math.NaN(), 0.0, 1.5, 2.5} {
		probe.MustAppend(1, table.F64(k), table.I64(int64(i)))
	}
	for i, k := range []float64{math.NaN(), negZero, 1.5} {
		build.MustAppend(1, table.F64(k), table.I64(int64(i)))
	}

	jp := simpleJoinPlan(t, probe, build, 0, 0, 1, nil)
	// +0 matches -0, 1.5 matches 1.5; the NaNs on both sides match nothing.
	if got := countJoin(t, jp, probe, build, sys); got != 2 {
		t.Errorf("float key join counted %d matches, want 2", got)
	}
}

// TestJoinZeroRowSides runs the join with an empty probe, an empty build,
// and both empty, on the serial and the morsel-parallel executor.
func TestJoinZeroRowSides(t *testing.T) {
	sys := MustSystem(DefaultSystemConfig())
	sch := geometry.MustSchema(
		geometry.Column{Name: "k", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "v", Type: geometry.Float64, Width: 8},
	)
	bsch := geometry.MustSchema(
		geometry.Column{Name: "id", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "w", Type: geometry.Float64, Width: 8},
	)
	fill := func(tbl *table.Table, rows int) {
		for i := 0; i < rows; i++ {
			tbl.MustAppend(1, table.I64(int64(i%5)), table.F64(float64(i)))
		}
	}
	cases := []struct{ probeRows, buildRows int }{{0, 20}, {20, 0}, {0, 0}}
	for _, tc := range cases {
		probe := mkJoinTable(t, sys, "pzero", sch, 32, false)
		build := mkJoinTable(t, sys, "bzero", bsch, 32, false)
		fill(probe, tc.probeRows)
		fill(build, tc.buildRows)
		jp := simpleJoinPlan(t, probe, build, 0, 0, 1, nil)
		if got := countJoin(t, jp, probe, build, sys); got != 0 {
			t.Errorf("probe=%d build=%d: counted %d matches, want 0", tc.probeRows, tc.buildRows, got)
		}
		sys.ResetState()
		res, err := (&ParallelJoinExec{Plan: jp, ProbeTbl: probe, Sys: sys,
			Par:    ParallelConfig{Workers: 3, MorselRows: 8},
			Builds: []Source{&RMEngine{Tbl: build, Sys: sys}}}).Execute()
		if err != nil {
			t.Fatalf("probe=%d build=%d: PAR: %v", tc.probeRows, tc.buildRows, err)
		}
		if res.Aggs[0].Int != 0 {
			t.Errorf("probe=%d build=%d: PAR counted %d matches, want 0", tc.probeRows, tc.buildRows, res.Aggs[0].Int)
		}
	}
}

// TestJoinBuildLargerThanProbe inverts the usual shape: the build side dwarfs
// the probe side, with heavy key duplication, and the match count must still
// be exact (probe rows × per-key build multiplicity).
func TestJoinBuildLargerThanProbe(t *testing.T) {
	sys := MustSystem(DefaultSystemConfig())
	sch := geometry.MustSchema(
		geometry.Column{Name: "k", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "v", Type: geometry.Float64, Width: 8},
	)
	bsch := geometry.MustSchema(
		geometry.Column{Name: "id", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "w", Type: geometry.Float64, Width: 8},
	)
	const probeRows, buildRows, keys = 40, 4000, 20
	probe := mkJoinTable(t, sys, "psmall", sch, probeRows, false)
	build := mkJoinTable(t, sys, "bbig", bsch, buildRows, false)
	for i := 0; i < probeRows; i++ {
		probe.MustAppend(1, table.I64(int64(i%(2*keys))), table.F64(float64(i)))
	}
	for i := 0; i < buildRows; i++ {
		build.MustAppend(1, table.I64(int64(i%keys)), table.F64(float64(i)))
	}
	// Probe keys 0..19 hit (multiplicity buildRows/keys each), 20..39 miss.
	perKey := int64(buildRows / keys)
	var want int64
	for i := 0; i < probeRows; i++ {
		if i%(2*keys) < keys {
			want += perKey
		}
	}
	jp := simpleJoinPlan(t, probe, build, 0, 0, 1, nil)
	if got := countJoin(t, jp, probe, build, sys); got != want {
		t.Errorf("big-build join counted %d matches, want %d", got, want)
	}
}

// TestJoinHTAPStress is the race-detector HTAP check for joins: writers
// append MVCC probe rows through the transaction manager while a reader runs
// snapshot joins under read views. Every probe row matches exactly one build
// row, so the join count at a snapshot must equal the single-table visible
// row count at that snapshot.
func TestJoinHTAPStress(t *testing.T) {
	sys := MustSystem(DefaultSystemConfig())
	sch := geometry.MustSchema(
		geometry.Column{Name: "k", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "v", Type: geometry.Float64, Width: 8},
	)
	bsch := geometry.MustSchema(
		geometry.Column{Name: "id", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "w", Type: geometry.Float64, Width: 8},
	)
	const dimRows, seedRows, writers, txns, perTxn, sweeps = 16, 64, 2, 40, 3, 40
	probe := mkJoinTable(t, sys, "phtap", sch, seedRows+writers*txns*perTxn+8, true)
	build := mkJoinTable(t, sys, "bhtap", bsch, dimRows, false)
	for i := 0; i < dimRows; i++ {
		build.MustAppend(1, table.I64(int64(i)), table.F64(float64(i)))
	}
	mgr, err := mvcc.NewManager(probe)
	if err != nil {
		t.Fatal(err)
	}
	load := mgr.Begin()
	for i := 0; i < seedRows; i++ {
		if err := load.Insert(table.I64(int64(i%dimRows)), table.F64(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := load.Commit(); err != nil {
		t.Fatal(err)
	}

	errc := make(chan error, writers+1)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < txns; i++ {
				txn := mgr.Begin()
				for r := 0; r < perTxn; r++ {
					if err := txn.Insert(table.I64(int64(rng.Intn(dimRows))), table.F64(rng.Float64())); err != nil {
						txn.Abort()
						errc <- err
						return
					}
				}
				if _, err := txn.Commit(); err != nil {
					errc <- err
					return
				}
			}
		}(int64(w + 1))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < sweeps; i++ {
			parallel := i%2 == 1
			err := mgr.ReadView(func(ts uint64) error {
				snap := ts
				jp := simpleJoinPlan(t, probe, build, 0, 0, 1, &snap)
				var res *Result
				var err error
				if parallel {
					res, err = (&ParallelJoinExec{Plan: jp, ProbeTbl: probe, Sys: sys,
						Par:    ParallelConfig{Workers: 3, MorselRows: 32},
						Builds: []Source{&RMEngine{Tbl: build, Sys: sys}}}).Execute()
				} else {
					res, err = (&JoinExec{Plan: jp,
						Probe:  &RowEngine{Tbl: probe, Sys: sys},
						Builds: []Source{&RowEngine{Tbl: build, Sys: sys}}}).Execute()
				}
				if err != nil {
					return err
				}
				visible, err := Run(&RowEngine{Tbl: probe, Sys: sys}, Query{
					Aggregates: []AggTerm{{Kind: expr.Count, Arg: expr.ColRef{Col: 0}}},
					Snapshot:   &snap,
				})
				if err != nil {
					return err
				}
				if res.Aggs[0].Int != visible.Aggs[0].Int {
					return fmt.Errorf("snapshot %d: join count %d != visible rows %d — torn read",
						ts, res.Aggs[0].Int, visible.Aggs[0].Int)
				}
				return nil
			})
			if err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
