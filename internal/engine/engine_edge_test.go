package engine

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rfabric/internal/expr"
	"rfabric/internal/table"
)

func TestEmptyTable(t *testing.T) {
	f := newFixture(t, 8, 0, false)
	q := Query{Projection: []int{0, 3}}
	for _, e := range engines(f) {
		f.sys.ResetState()
		r := mustExec(t, e, q)
		if r.RowsScanned != 0 || r.RowsPassed != 0 || r.Checksum != 0 {
			t.Errorf("%s on empty table: %+v", e.Name(), r)
		}
	}
}

func TestSingleRow(t *testing.T) {
	f := newFixture(t, 8, 1, false)
	q := Query{Projection: []int{7}}
	ref := mustExec(t, &RowEngine{Tbl: f.tbl, Sys: f.sys}, q)
	for _, e := range engines(f) {
		f.sys.ResetState()
		if err := mustExec(t, e, q).EquivalentTo(ref, 0); err != nil {
			t.Errorf("%s: %v", e.Name(), err)
		}
	}
}

func TestSelectionEliminatingEverything(t *testing.T) {
	f := newFixture(t, 8, 500, false)
	q := Query{
		Projection: []int{0},
		Selection:  expr.Conjunction{{Col: 1, Op: expr.Gt, Operand: table.I32(10_000)}},
	}
	for _, e := range engines(f) {
		f.sys.ResetState()
		r := mustExec(t, e, q)
		if r.RowsPassed != 0 {
			t.Errorf("%s passed %d rows through an impossible predicate", e.Name(), r.RowsPassed)
		}
	}
}

func TestValidationErrorsAcrossEngines(t *testing.T) {
	f := newFixture(t, 4, 10, false)
	bad := []Query{
		{},                      // consumes nothing
		{Projection: []int{99}}, // column out of range
		{GroupBy: []int{0}},     // group-by without aggregates
		{Projection: []int{0}, Selection: expr.Conjunction{{Col: 0, Op: expr.Lt, Operand: table.F64(1)}}}, // type mismatch
		{Aggregates: []AggTerm{{Kind: expr.Sum}}},                                                         // SUM without argument
	}
	for i, q := range bad {
		for _, e := range engines(f) {
			if _, err := Run(e, q); err == nil {
				t.Errorf("query %d accepted by %s", i, e.Name())
			}
		}
	}
}

func TestRMNeverShipsMoreThanROWTouches(t *testing.T) {
	f := newFixture(t, 16, 8000, false)
	queries := []Query{
		{Projection: []int{0}},
		{Projection: []int{1, 5, 9, 13}},
		{Projection: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}},
		{Projection: []int{2}, Selection: expr.Conjunction{{Col: 8, Op: expr.Lt, Operand: table.I32(500)}}},
	}
	for i, q := range queries {
		f.sys.ResetState()
		row := mustExec(t, &RowEngine{Tbl: f.tbl, Sys: f.sys}, q)
		f.sys.ResetState()
		rm := mustExec(t, &RMEngine{Tbl: f.tbl, Sys: f.sys}, q)
		if rm.Breakdown.BytesToCPU > row.Breakdown.BytesToCPU {
			t.Errorf("query %d: RM shipped %d bytes to the CPU, ROW moved %d — the fabric must never ship more",
				i, rm.Breakdown.BytesToCPU, row.Breakdown.BytesToCPU)
		}
	}
}

func TestBreakdownTotalsAreConsistent(t *testing.T) {
	f := newFixture(t, 16, 4000, false)
	q := Query{Projection: []int{0, 4, 8}}
	for _, e := range engines(f) {
		f.sys.ResetState()
		r := mustExec(t, e, q)
		b := r.Breakdown
		if b.TotalCycles == 0 {
			t.Errorf("%s: zero total", e.Name())
		}
		if e.Name() != "RM" && b.TotalCycles < b.ComputeCycles {
			t.Errorf("%s: total %d below compute %d", e.Name(), b.TotalCycles, b.ComputeCycles)
		}
		if b.BytesFromDRAM == 0 {
			t.Errorf("%s: no DRAM traffic for a cold scan", e.Name())
		}
	}
}

func TestChecksumOrderInsensitive(t *testing.T) {
	// Two engines visiting rows in different orders must produce the same
	// checksum; simulate by building two tables with permuted row order.
	f1 := newFixture(t, 4, 300, false)
	// Permute rows into a second table.
	perm := rand.New(rand.NewSource(1)).Perm(300)
	f2 := newFixture(t, 4, 0, false)
	for _, r := range perm {
		if _, err := f2.tbl.AppendRaw(1, f1.tbl.RowPayload(r)); err != nil {
			t.Fatal(err)
		}
	}
	q := Query{Projection: []int{0, 2}}
	a := mustExec(t, &RowEngine{Tbl: f1.tbl, Sys: f1.sys}, q)
	b := mustExec(t, &RowEngine{Tbl: f2.tbl, Sys: f2.sys}, q)
	if a.Checksum != b.Checksum {
		t.Error("checksum depends on row order")
	}
}

func TestRMSmallBufferManyChunksStillAgrees(t *testing.T) {
	cfg := DefaultSystemConfig()
	cfg.Fabric.BufferBytes = 512
	sys := MustSystem(cfg)
	f := newFixture(t, 8, 2000, false)
	// Rebuild RM on the small-buffer system, sharing the same data.
	tbl := relocate(t, f.tbl, sys.Arena.Alloc(int64(f.tbl.SizeBytes())))
	q := Query{
		Projection: []int{0, 3, 6},
		Selection:  expr.Conjunction{{Col: 1, Op: expr.Ge, Operand: table.I32(300)}},
	}
	ref := mustExec(t, &RowEngine{Tbl: f.tbl, Sys: f.sys}, q)
	rm := mustExec(t, &RMEngine{Tbl: tbl, Sys: sys}, q)
	if err := rm.EquivalentTo(ref, 0); err != nil {
		t.Errorf("chunked RM diverges: %v", err)
	}
	if sys.Fab.Stats().Chunks < 10 {
		t.Errorf("expected many refills, got %d", sys.Fab.Stats().Chunks)
	}
}

// TestEnginesAgreeProperty: random queries over a random table agree across
// all engines — the repository's central correctness invariant.
func TestEnginesAgreeProperty(t *testing.T) {
	f := newFixture(t, 10, 800, false)
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var proj []int
		for c := 0; c < 10; c++ {
			if rng.Intn(3) == 0 {
				proj = append(proj, c)
			}
		}
		if len(proj) == 0 {
			proj = []int{rng.Intn(10)}
		}
		var sel expr.Conjunction
		for p := 0; p < rng.Intn(3); p++ {
			sel = append(sel, expr.Predicate{
				Col:     rng.Intn(10),
				Op:      expr.CmpOp(rng.Intn(6)),
				Operand: table.I32(int32(rng.Intn(1000))),
			})
		}
		q := Query{Projection: proj, Selection: sel}
		f.sys.ResetState()
		ref, err := (&RowEngine{Tbl: f.tbl, Sys: f.sys}).Execute(q)
		if err != nil {
			return false
		}
		for _, e := range engines(f) {
			f.sys.ResetState()
			r, err := Run(e, q)
			if err != nil {
				return false
			}
			if r.EquivalentTo(ref, 0) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGroupByMultipleKeysWithSnapshot(t *testing.T) {
	f := newFixture(t, 6, 900, true)
	// End a third of the versions at ts 3.
	for r := 0; r < 900; r += 3 {
		if err := f.tbl.SetEndTS(r, 3); err != nil {
			t.Fatal(err)
		}
	}
	snap := uint64(2)
	q := Query{
		GroupBy:    []int{0, 1},
		Aggregates: []AggTerm{{Kind: expr.Count}, {Kind: expr.Max, Arg: expr.ColRef{Col: 2}}},
		Snapshot:   &snap,
	}
	ref := mustExec(t, &RowEngine{Tbl: f.tbl, Sys: f.sys}, q)
	f.sys.ResetState()
	rm := mustExec(t, &RMEngine{Tbl: f.tbl, Sys: f.sys}, q)
	if err := rm.EquivalentTo(ref, 1e-9); err != nil {
		t.Errorf("grouped snapshot query diverges: %v", err)
	}
	var total int64
	for _, g := range ref.Groups {
		total += g.Count
		if len(g.Key) != 2 {
			t.Fatalf("group key arity %d", len(g.Key))
		}
	}
	if total != ref.RowsPassed {
		t.Errorf("group counts (%d) do not cover passed rows (%d)", total, ref.RowsPassed)
	}
	// The later snapshot sees more versions dead... verify snapshots differ.
	snap2 := uint64(5)
	q.Snapshot = &snap2
	f.sys.ResetState()
	later := mustExec(t, &RowEngine{Tbl: f.tbl, Sys: f.sys}, q)
	if later.RowsPassed >= ref.RowsPassed {
		t.Errorf("snapshot 5 passed %d rows, snapshot 2 passed %d", later.RowsPassed, ref.RowsPassed)
	}
}

func TestAvgOverEmptySelection(t *testing.T) {
	f := newFixture(t, 4, 100, false)
	q := Query{
		Selection:  expr.Conjunction{{Col: 0, Op: expr.Gt, Operand: table.I32(99_999)}},
		Aggregates: []AggTerm{{Kind: expr.Avg, Arg: expr.ColRef{Col: 1}}, {Kind: expr.Count}},
	}
	for _, e := range engines(f) {
		f.sys.ResetState()
		r := mustExec(t, e, q)
		if r.Aggs[0].Float != 0 || r.Aggs[1].Int != 0 {
			t.Errorf("%s: empty AVG/COUNT = %s/%s", e.Name(), r.Aggs[0], r.Aggs[1])
		}
	}
}
