package engine

import (
	"math/rand"
	"testing"

	"rfabric/internal/expr"
	"rfabric/internal/geometry"
	"rfabric/internal/obs"
	"rfabric/internal/plan"
	"rfabric/internal/table"
)

// joinPlanFixture holds two correlated tables on one System: a fact table
// (fk BIGINT, val DOUBLE, tag CHAR(4)) and a dimension (id BIGINT, w INT).
type joinPlanFixture struct {
	sys  *System
	fact *table.Table
	dim  *table.Table
}

func factSchema() *geometry.Schema {
	return geometry.MustSchema(
		geometry.Column{Name: "fk", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "val", Type: geometry.Float64, Width: 8},
		geometry.Column{Name: "tag", Type: geometry.Char, Width: 4},
	)
}

func dimSchema() *geometry.Schema {
	return geometry.MustSchema(
		geometry.Column{Name: "id", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "w", Type: geometry.Int32, Width: 4},
	)
}

// buildJoinTable materializes rows into a relocated table on sys's arena.
func buildJoinTable(t *testing.T, sys *System, name string, sch *geometry.Schema, rows [][]table.Value, mvcc bool) *table.Table {
	t.Helper()
	var opts []table.Option
	if mvcc {
		opts = append(opts, table.WithMVCC())
	}
	tbl := table.MustNew(name, sch, opts...)
	for _, vals := range rows {
		tbl.MustAppend(1, vals...)
	}
	base := sys.Arena.Alloc(int64(tbl.SizeBytes()))
	return relocate(t, tbl, base)
}

func newJoinPlanFixture(t *testing.T, factRows, dimRows int, seed int64) *joinPlanFixture {
	t.Helper()
	sys := MustSystem(DefaultSystemConfig())
	rng := rand.New(rand.NewSource(seed))
	tags := []string{"AA", "BB", "CC"}
	fr := make([][]table.Value, factRows)
	for i := range fr {
		fr[i] = []table.Value{
			table.I64(int64(rng.Intn(dimRows + 2))), // some keys dangle
			table.F64(float64(rng.Intn(1000)) / 10),
			table.Str(tags[rng.Intn(len(tags))]),
		}
	}
	dr := make([][]table.Value, dimRows)
	for i := range dr {
		dr[i] = []table.Value{
			table.I64(int64(i % (dimRows/2 + 1))), // duplicate keys
			table.I32(int32(rng.Intn(5))),
		}
	}
	return &joinPlanFixture{
		sys:  sys,
		fact: buildJoinTable(t, sys, "fact", factSchema(), fr, false),
		dim:  buildJoinTable(t, sys, "dim", dimSchema(), dr, false),
	}
}

func (f *joinPlanFixture) lookup(name string) (*geometry.Schema, error) {
	switch name {
	case "fact":
		return f.fact.Schema(), nil
	default:
		return f.dim.Schema(), nil
	}
}

// materialize reads every row of a table into boxed values.
func materialize(tbl *table.Table) [][]table.Value {
	sch := tbl.Schema()
	out := make([][]table.Value, tbl.NumRows())
	for r := range out {
		row := make([]table.Value, sch.NumColumns())
		payload := tbl.RowPayload(r)
		for c := range row {
			row[c] = table.DecodeColumn(sch.Column(c), payload[sch.Offset(c):])
		}
		out[r] = row
	}
	return out
}

// referenceJoin nested-loops the join plan over materialized tables and
// folds the matches with refFold, producing the ground-truth Result shape
// (the plan's sinks are not applied).
func referenceJoin(p *JoinPlan, probe [][]table.Value, builds ...[][]table.Value) *Result {
	passes := func(row []table.Value, sel expr.Conjunction) bool {
		for _, pr := range sel {
			if !pr.Eval(row[pr.Col]) {
				return false
			}
		}
		return true
	}
	var matches [][]table.Value
	var descend func(stage int, combined []table.Value)
	descend = func(stage int, combined []table.Value) {
		if stage == len(p.Stages) {
			matches = append(matches, combined)
			return
		}
		st := p.Stages[stage]
		for _, brow := range builds[stage] {
			if !passes(brow, st.Side.Query.Selection) {
				continue
			}
			if !refKeysMatch(combined[st.ProbeKey], brow[st.BuildKey]) {
				continue
			}
			descend(stage+1, append(combined[:len(combined):len(combined)], brow...))
		}
	}
	for _, prow := range probe {
		if !passes(prow, p.Probe.Query.Selection) {
			continue
		}
		descend(0, prow)
	}
	return refFold(p.Consume, matches)
}

// q3ClassPlan builds fact ⋈ dim with a selection on each side and grouped
// aggregation over the combined namespace. Combined columns: fact(0..2)
// ++ dim(3..4).
func q3ClassPlan(f *joinPlanFixture, t *testing.T) *JoinPlan {
	t.Helper()
	probe := plan.NewScan("fact", "", nil).
		Filter(expr.Conjunction{{Col: 1, Op: expr.Lt, Operand: table.F64(80)}})
	build := plan.NewScan("dim", "", nil).
		Filter(expr.Conjunction{{Col: 1, Op: expr.Ge, Operand: table.I32(1)}})
	root := probe.Join(build, 0, 0).
		Aggregate([]int{4}, []plan.Agg{
			{Kind: expr.Sum, Arg: expr.ColRef{Col: 1}},
			{Kind: expr.Count},
		})
	p, sk, err := FromJoinPlan(root, f.lookup)
	if err != nil {
		t.Fatalf("FromJoinPlan: %v", err)
	}
	if !sk.Empty() {
		t.Fatalf("unexpected sinks: %+v", sk)
	}
	return p
}

func TestJoinExecMatchesReference(t *testing.T) {
	f := newJoinPlanFixture(t, 2000, 60, 7)
	p := q3ClassPlan(f, t)
	ref := referenceJoin(p, materialize(f.fact), materialize(f.dim))
	if ref.RowsPassed == 0 {
		t.Fatal("reference join produced no rows; fixture is too sparse")
	}

	probes := map[string]func() Source{
		"ROW": func() Source { return &RowEngine{Tbl: f.fact, Sys: f.sys} },
		"RM":  func() Source { return &RMEngine{Tbl: f.fact, Sys: f.sys} },
	}
	for name, mk := range probes {
		f.sys.ResetState()
		ex := &JoinExec{
			Plan:   p,
			Probe:  mk(),
			Builds: []Source{&RowEngine{Tbl: f.dim, Sys: f.sys}},
		}
		got, err := ex.Execute()
		if err != nil {
			t.Fatalf("%s probe: %v", name, err)
		}
		if err := got.EquivalentTo(ref, 1e-9); err != nil {
			t.Errorf("%s probe disagrees with reference: %v", name, err)
		}
		wantScanned := int64(f.fact.NumRows() + f.dim.NumRows())
		if got.RowsScanned != wantScanned {
			t.Errorf("%s probe scanned %d rows, want %d", name, got.RowsScanned, wantScanned)
		}
	}
}

func TestJoinExecSpanReconciliation(t *testing.T) {
	f := newJoinPlanFixture(t, 1200, 40, 11)
	p := q3ClassPlan(f, t)
	tr := obs.NewTracer("join")
	ex := &JoinExec{
		Plan:   p,
		Probe:  &RowEngine{Tbl: f.fact, Sys: f.sys, Tracer: tr},
		Builds: []Source{&RowEngine{Tbl: f.dim, Sys: f.sys, Tracer: tr}},
	}
	res, err := ex.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Root().AttributedCycles(); got != res.Breakdown.TotalCycles {
		t.Errorf("root span attributes %d cycles, breakdown totals %d", got, res.Breakdown.TotalCycles)
	}
}

func TestParallelJoinExecMatchesSerial(t *testing.T) {
	f := newJoinPlanFixture(t, 3000, 80, 13)
	p := q3ClassPlan(f, t)

	f.sys.ResetState()
	serial := &JoinExec{
		Plan:   p,
		Probe:  &RMEngine{Tbl: f.fact, Sys: f.sys},
		Builds: []Source{&RMEngine{Tbl: f.dim, Sys: f.sys}},
	}
	want, err := serial.Execute()
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 3, 8} {
		f.sys.ResetState()
		tr := obs.NewTracer("parjoin")
		par := &ParallelJoinExec{
			Plan:     p,
			ProbeTbl: f.fact,
			Sys:      f.sys,
			Par:      ParallelConfig{Workers: workers, MorselRows: 512},
			Builds:   []Source{&RMEngine{Tbl: f.dim, Sys: f.sys, Tracer: tr}},
			Tracer:   tr,
		}
		got, err := par.Execute()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := got.EquivalentTo(want, 1e-9); err != nil {
			t.Errorf("workers=%d disagrees with serial join: %v", workers, err)
		}
		if got.RowsScanned != want.RowsScanned {
			t.Errorf("workers=%d scanned %d rows, want %d", workers, got.RowsScanned, want.RowsScanned)
		}
		if at := tr.Root().AttributedCycles(); at != got.Breakdown.TotalCycles {
			t.Errorf("workers=%d: root span attributes %d cycles, breakdown totals %d", workers, at, got.Breakdown.TotalCycles)
		}
	}

	// Reproducibility: the same configuration yields the same modeled cost
	// regardless of goroutine interleaving. (Across worker counts only the
	// makespan changes — the cost model rewards parallelism.)
	run := func() uint64 {
		f.sys.ResetState()
		r, err := (&ParallelJoinExec{Plan: p, ProbeTbl: f.fact, Sys: f.sys,
			Par:    ParallelConfig{Workers: 4, MorselRows: 512},
			Builds: []Source{&RMEngine{Tbl: f.dim, Sys: f.sys}}}).Execute()
		if err != nil {
			t.Fatal(err)
		}
		return r.Breakdown.TotalCycles
	}
	if a, b := run(), run(); a != b {
		t.Errorf("modeled cycles differ across identical runs: %d vs %d", a, b)
	}
}

func TestFromJoinPlanRejectsBadTrees(t *testing.T) {
	f := newJoinPlanFixture(t, 10, 5, 1)
	cases := []struct {
		name string
		root *plan.Node
	}{
		{"key type mismatch", plan.NewScan("fact", "", nil).
			Join(plan.NewScan("dim", "", nil), 1 /* val: float */, 0 /* id: int */).
			Aggregate([]int{4}, []plan.Agg{{Kind: expr.Count}})},
		{"probe key in build range", plan.NewScan("fact", "", nil).
			Join(plan.NewScan("dim", "", nil), 3, 0).
			Aggregate([]int{4}, []plan.Agg{{Kind: expr.Count}})},
		{"build key out of range", plan.NewScan("fact", "", nil).
			Join(plan.NewScan("dim", "", nil), 0, 9).
			Aggregate([]int{4}, []plan.Agg{{Kind: expr.Count}})},
	}
	for _, tc := range cases {
		if _, _, err := FromJoinPlan(tc.root, f.lookup); err == nil {
			t.Errorf("%s: FromJoinPlan accepted an invalid tree", tc.name)
		}
	}
}

func TestJoinSchemaQualifiesDuplicates(t *testing.T) {
	a := geometry.MustSchema(
		geometry.Column{Name: "id", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "x", Type: geometry.Int32, Width: 4},
	)
	b := geometry.MustSchema(
		geometry.Column{Name: "id", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "y", Type: geometry.Int32, Width: 4},
	)
	sch, offs, err := JoinSchema([]string{"l", "r"}, []*geometry.Schema{a, b})
	if err != nil {
		t.Fatal(err)
	}
	wantNames := []string{"l.id", "x", "r.id", "y"}
	for i, w := range wantNames {
		if got := sch.Column(i).Name; got != w {
			t.Errorf("column %d named %q, want %q", i, got, w)
		}
	}
	if offs[0] != 0 || offs[1] != 2 {
		t.Errorf("offsets = %v, want [0 2]", offs)
	}
}
