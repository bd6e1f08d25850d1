package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"rfabric/internal/colstore"
	"rfabric/internal/expr"
	"rfabric/internal/geometry"
	"rfabric/internal/obs"
	"rfabric/internal/plan"
	"rfabric/internal/table"
)

// TestEngineEquivalence is the DESIGN §6 invariant as a property test: for
// randomized schemas, data, and queries, every execution path — ROW, COL,
// RM (with and without pushdown), and the morsel-parallel PAR executor —
// returns the same rows, aggregates, groups, and checksum. MVCC trials run
// the same property at random snapshots over versioned tables (COL sits
// those out by design: the columnar copy has no version headers).
func TestEngineEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20230417))
	const plainTrials, mvccTrials = 70, 50
	for i := 0; i < plainTrials; i++ {
		t.Run(fmt.Sprintf("plain/%03d", i), func(t *testing.T) { equivalenceTrial(t, rng, false) })
	}
	for i := 0; i < mvccTrials; i++ {
		t.Run(fmt.Sprintf("mvcc/%03d", i), func(t *testing.T) { equivalenceTrial(t, rng, true) })
	}
}

func equivalenceTrial(t *testing.T, rng *rand.Rand, mvcc bool) {
	t.Helper()
	sch := genSchema(rng)
	sys := MustSystem(DefaultSystemConfig())

	rows := 1 + rng.Intn(400)
	stride := sch.RowBytes()
	if mvcc {
		stride += table.MVCCHeaderBytes
	}
	base := sys.Arena.Alloc(int64(rows * stride))
	opts := []table.Option{table.WithCapacity(rows), table.WithBaseAddr(base)}
	if mvcc {
		opts = append(opts, table.WithMVCC())
	}
	tbl, err := table.New("prop", sch, opts...)
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

	var snapshot *uint64
	if mvcc {
		ts := uint64(rng.Intn(6))
		snapshot = &ts
	}
	q := genQuery(rng, sch, snapshot)
	if err := q.Validate(sch); err != nil {
		t.Fatalf("generated query invalid: %v\nquery: %+v", err, q)
	}

	engines := []Executor{
		&RowEngine{Tbl: tbl, Sys: sys},
		&RMEngine{Tbl: tbl, Sys: sys},
		&RMEngine{Tbl: tbl, Sys: sys, PushSelection: true},
		&RMEngine{Tbl: tbl, Sys: sys, Offload: true},
		&ParallelEngine{
			Tbl: tbl, Sys: sys,
			Par: ParallelConfig{Workers: 1 + rng.Intn(8), MorselRows: 16 + rng.Intn(96)},
		},
	}
	if !mvcc {
		store, err := colstore.FromTable(tbl, sys.Arena)
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, &ColEngine{Store: store, Sys: sys})
	}

	var baseline *Result
	for _, e := range engines {
		sys.ResetState()
		r, err := e.Execute(q)
		if err != nil {
			t.Fatalf("%s: %v\nquery: %+v", e.Name(), err, q)
		}
		if baseline == nil {
			baseline = r
			continue
		}
		// The offload layer's contract is stronger than float-epsilon
		// equivalence: a fabric-side fold must reproduce the CPU-side result
		// bit-for-bit (same float adds in the same row order), so the
		// offloading RM path is held to zero tolerance against ROW.
		tol := 1e-9
		if rm, ok := e.(*RMEngine); ok && rm.Offload {
			tol = 0
		}
		if err := baseline.EquivalentTo(r, tol); err != nil {
			t.Fatalf("%s disagrees with %s: %v\nquery: %+v\nrows=%d mvcc=%v snapshot=%v",
				r.Engine, baseline.Engine, err, q, rows, mvcc, snapshot)
		}
	}
}

// genSchema builds a 3-6 column schema. Column 0 is always BIGINT so every
// schema has a numeric aggregate target; the rest draw from all five types.
func genSchema(rng *rand.Rand) *geometry.Schema {
	n := 3 + rng.Intn(4)
	cols := make([]geometry.Column, n)
	cols[0] = geometry.Column{Name: "c00", Type: geometry.Int64, Width: 8}
	for i := 1; i < n; i++ {
		name := fmt.Sprintf("c%02d", i)
		switch rng.Intn(5) {
		case 0:
			cols[i] = geometry.Column{Name: name, Type: geometry.Int64, Width: 8}
		case 1:
			cols[i] = geometry.Column{Name: name, Type: geometry.Int32, Width: 4}
		case 2:
			cols[i] = geometry.Column{Name: name, Type: geometry.Float64, Width: 8}
		case 3:
			cols[i] = geometry.Column{Name: name, Type: geometry.Char, Width: 8}
		case 4:
			cols[i] = geometry.Column{Name: name, Type: geometry.Date, Width: 4}
		}
	}
	sch, err := geometry.NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return sch
}

var genWords = []string{"ash", "birch", "cedar", "fir", "oak", "pine"}

// genValue draws a value typed for col from a small domain, so predicates
// and group keys hit often.
func genValue(rng *rand.Rand, col geometry.Column) table.Value {
	switch col.Type {
	case geometry.Int64:
		return table.I64(int64(rng.Intn(100)))
	case geometry.Int32:
		return table.I32(int32(rng.Intn(100)))
	case geometry.Float64:
		return table.F64(float64(rng.Intn(1000)) / 8)
	case geometry.Char:
		return table.Str(genWords[rng.Intn(len(genWords))])
	case geometry.Date:
		return table.DateV(int32(rng.Intn(100)))
	default:
		panic("genValue: unknown type")
	}
}

// genQuery builds a random valid query: one of projection scan, scalar
// aggregation, or grouped aggregation (one or two keys), with 0-2
// predicates.
func genQuery(rng *rand.Rand, sch *geometry.Schema, snapshot *uint64) Query {
	q := Query{Snapshot: snapshot}
	var numeric []int
	for c := 0; c < sch.NumColumns(); c++ {
		if sch.Column(c).Type != geometry.Char {
			numeric = append(numeric, c)
		}
	}

	for i := rng.Intn(3); i > 0; i-- {
		c := rng.Intn(sch.NumColumns())
		ops := []expr.CmpOp{expr.Lt, expr.Le, expr.Eq, expr.Ne, expr.Ge, expr.Gt}
		q.Selection = append(q.Selection, expr.Predicate{
			Col: c, Op: ops[rng.Intn(len(ops))], Operand: genValue(rng, sch.Column(c)),
		})
	}

	switch rng.Intn(3) {
	case 0: // projection scan
		for c := 0; c < sch.NumColumns(); c++ {
			if rng.Intn(2) == 0 {
				q.Projection = append(q.Projection, c)
			}
		}
		if len(q.Projection) == 0 {
			q.Projection = []int{rng.Intn(sch.NumColumns())}
		}
	case 1: // scalar aggregation
		q.Aggregates = genAggs(rng, numeric)
	case 2: // grouped aggregation over one or two key columns
		q.GroupBy = []int{rng.Intn(sch.NumColumns())}
		if c := rng.Intn(sch.NumColumns()); rng.Intn(3) == 0 && c != q.GroupBy[0] {
			q.GroupBy = append(q.GroupBy, c)
		}
		q.Aggregates = genAggs(rng, numeric)
	}
	return q
}

// genAggs draws 1-3 aggregate terms over numeric columns; arguments are
// plain references or derived expressions like Q6's price*discount.
func genAggs(rng *rand.Rand, numeric []int) []AggTerm {
	n := 1 + rng.Intn(3)
	out := make([]AggTerm, n)
	for i := range out {
		kinds := []expr.AggKind{expr.Count, expr.Sum, expr.Avg, expr.Min, expr.Max}
		kind := kinds[rng.Intn(len(kinds))]
		if kind == expr.Count && rng.Intn(2) == 0 {
			out[i] = AggTerm{Kind: expr.Count} // COUNT(*)
			continue
		}
		var arg expr.Scalar = expr.ColRef{Col: numeric[rng.Intn(len(numeric))]}
		if rng.Intn(3) == 0 {
			ops := []expr.BinOp{expr.Add, expr.Sub, expr.Mul}
			arg = expr.Binary{
				Op: ops[rng.Intn(len(ops))],
				L:  arg,
				R:  expr.Const{V: float64(1 + rng.Intn(4))},
			}
		}
		out[i] = AggTerm{Kind: kind, Arg: arg}
	}
	return out
}

// TestJoinEngineEquivalence extends the equivalence property to two-table
// joins: for randomized schemas, data, key columns, selections, and
// consumption shapes — including empty build or probe sides, duplicate keys,
// and MVCC snapshots — every join execution path (ROW, COL, RM, PAR) returns
// the same result, and every run's span tree reconciles exactly with its
// Breakdown.TotalCycles.
func TestJoinEngineEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(79220301))
	const plainTrials, mvccTrials = 70, 40
	for i := 0; i < plainTrials; i++ {
		t.Run(fmt.Sprintf("plain/%03d", i), func(t *testing.T) { joinEquivalenceTrial(t, rng, false) })
	}
	for i := 0; i < mvccTrials; i++ {
		t.Run(fmt.Sprintf("mvcc/%03d", i), func(t *testing.T) { joinEquivalenceTrial(t, rng, true) })
	}
}

func joinEquivalenceTrial(t *testing.T, rng *rand.Rand, mvcc bool) {
	t.Helper()
	sys := MustSystem(DefaultSystemConfig())
	probeSch, buildSch := genSchema(rng), genSchema(rng)
	probeTbl := genJoinTable(t, sys, "probe", probeSch, genJoinRows(rng), mvcc, rng)
	buildTbl := genJoinTable(t, sys, "build", buildSch, genJoinRows(rng), mvcc, rng)

	var snapshot *uint64
	if mvcc {
		ts := uint64(rng.Intn(6))
		snapshot = &ts
	}
	root := genJoinTree(rng, probeSch, buildSch, snapshot)
	lookup := func(name string) (*geometry.Schema, error) {
		if name == "probe" {
			return probeSch, nil
		}
		return buildSch, nil
	}
	jp, _, err := FromJoinPlan(root, lookup)
	if err != nil {
		t.Fatalf("lowering generated join: %v\nplan:\n%s", err, root.Explain(nil))
	}

	workers := 1 + rng.Intn(8)
	morselRows := 16 + rng.Intn(96)
	type joinRun struct {
		name string
		run  func(tr *obs.Tracer) (*Result, error)
	}
	runs := []joinRun{
		{"ROW", func(tr *obs.Tracer) (*Result, error) {
			return (&JoinExec{Plan: jp,
				Probe:  &RowEngine{Tbl: probeTbl, Sys: sys, Tracer: tr},
				Builds: []Source{&RowEngine{Tbl: buildTbl, Sys: sys, Tracer: tr}}}).Execute()
		}},
		{"RM", func(tr *obs.Tracer) (*Result, error) {
			return (&JoinExec{Plan: jp,
				Probe:  &RMEngine{Tbl: probeTbl, Sys: sys, Tracer: tr},
				Builds: []Source{&RMEngine{Tbl: buildTbl, Sys: sys, Tracer: tr}}}).Execute()
		}},
		{"PAR", func(tr *obs.Tracer) (*Result, error) {
			return (&ParallelJoinExec{Plan: jp, ProbeTbl: probeTbl, Sys: sys,
				Par:    ParallelConfig{Workers: workers, MorselRows: morselRows},
				Builds: []Source{&RMEngine{Tbl: buildTbl, Sys: sys, Tracer: tr}},
				Tracer: tr}).Execute()
		}},
	}
	if !mvcc {
		probeStore, err := colstore.FromTable(probeTbl, sys.Arena)
		if err != nil {
			t.Fatal(err)
		}
		buildStore, err := colstore.FromTable(buildTbl, sys.Arena)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, joinRun{"COL", func(tr *obs.Tracer) (*Result, error) {
			return (&JoinExec{Plan: jp,
				Probe:  &ColEngine{Store: probeStore, Sys: sys, Tracer: tr},
				Builds: []Source{&ColEngine{Store: buildStore, Sys: sys, Tracer: tr}}}).Execute()
		}})
	}

	var baseline *Result
	for _, jr := range runs {
		sys.ResetState()
		tr := obs.NewTracer("query")
		res, err := jr.run(tr)
		if err != nil {
			t.Fatalf("%s: %v\nplan:\n%s", jr.name, err, root.Explain(nil))
		}
		if got := tr.Root().AttributedCycles(); got != res.Breakdown.TotalCycles {
			t.Fatalf("%s: span tree attributes %d cycles, Breakdown.TotalCycles is %d\nplan:\n%s",
				jr.name, got, res.Breakdown.TotalCycles, root.Explain(nil))
		}
		if baseline == nil {
			baseline = res
			continue
		}
		if err := baseline.EquivalentTo(res, 1e-9); err != nil {
			t.Fatalf("%s disagrees with %s: %v\nplan:\n%s\nprobe rows=%d build rows=%d snapshot=%v",
				res.Engine, baseline.Engine, err, root.Explain(nil),
				probeTbl.NumRows(), buildTbl.NumRows(), snapshot)
		}
	}
}

// genJoinRows draws a side's row count, empty roughly one trial in twelve so
// zero-row build and probe sides stay covered.
func genJoinRows(rng *rand.Rand) int {
	if rng.Intn(12) == 0 {
		return 0
	}
	return 1 + rng.Intn(250)
}

// genJoinTable builds and fills one join side. Values draw from genValue's
// small domains, so duplicate join keys are common.
func genJoinTable(t *testing.T, sys *System, name string, sch *geometry.Schema, rows int, mvcc bool, rng *rand.Rand) *table.Table {
	t.Helper()
	stride := sch.RowBytes()
	if mvcc {
		stride += table.MVCCHeaderBytes
	}
	cap := rows
	if cap < 1 {
		cap = 1
	}
	base := sys.Arena.Alloc(int64(cap * stride))
	opts := []table.Option{table.WithCapacity(cap), table.WithBaseAddr(base)}
	if mvcc {
		opts = append(opts, table.WithMVCC())
	}
	tbl, err := table.New(name, sch, opts...)
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
	return tbl
}

// genJoinTree builds a random valid two-table join plan: key columns of a
// shared type family, 0-2 pushed-down predicates per side, and a consumption
// that is a combined projection, a scalar aggregation, or a grouped
// aggregation with one or two keys.
func genJoinTree(rng *rand.Rand, probeSch, buildSch *geometry.Schema, snapshot *uint64) *plan.Node {
	family := func(t geometry.ColumnType) int {
		switch t {
		case geometry.Float64:
			return 1
		case geometry.Char:
			return 2
		default:
			return 0
		}
	}
	byFamily := func(sch *geometry.Schema) map[int][]int {
		m := map[int][]int{}
		for c := 0; c < sch.NumColumns(); c++ {
			f := family(sch.Column(c).Type)
			m[f] = append(m[f], c)
		}
		return m
	}
	pf, bf := byFamily(probeSch), byFamily(buildSch)
	var shared []int
	for f := range pf {
		if len(bf[f]) > 0 {
			shared = append(shared, f)
		}
	}
	sort.Ints(shared) // deterministic order for the rng draw
	f := shared[rng.Intn(len(shared))]
	pk := pf[f][rng.Intn(len(pf[f]))]
	bk := bf[f][rng.Intn(len(bf[f]))]

	genSideSel := func(sch *geometry.Schema) expr.Conjunction {
		var sel expr.Conjunction
		for i := rng.Intn(3); i > 0; i-- {
			c := rng.Intn(sch.NumColumns())
			ops := []expr.CmpOp{expr.Lt, expr.Le, expr.Eq, expr.Ne, expr.Ge, expr.Gt}
			sel = append(sel, expr.Predicate{
				Col: c, Op: ops[rng.Intn(len(ops))], Operand: genValue(rng, sch.Column(c)),
			})
		}
		return sel
	}
	mkChain := func(name string, sch *geometry.Schema) *plan.Node {
		scan := plan.NewScan(name, "", nil)
		scan.Snapshot = snapshot
		scan.Sch = sch
		n := scan
		if sel := genSideSel(sch); len(sel) > 0 {
			n = n.Filter(sel)
			n.Sch = sch
		}
		return n
	}

	root := mkChain("probe", probeSch).Join(mkChain("build", buildSch), pk, bk)

	total := probeSch.NumColumns() + buildSch.NumColumns()
	var numeric []int
	isChar := func(c int) bool {
		if c < probeSch.NumColumns() {
			return probeSch.Column(c).Type == geometry.Char
		}
		return buildSch.Column(c-probeSch.NumColumns()).Type == geometry.Char
	}
	for c := 0; c < total; c++ {
		if !isChar(c) {
			numeric = append(numeric, c)
		}
	}
	switch rng.Intn(3) {
	case 0: // combined projection
		var cols []int
		for c := 0; c < total; c++ {
			if rng.Intn(2) == 0 {
				cols = append(cols, c)
			}
		}
		if len(cols) == 0 {
			cols = []int{rng.Intn(total)}
		}
		root = root.Project(cols)
	case 1: // scalar aggregation
		root = root.Aggregate(nil, toPlanAggs(genAggs(rng, numeric)))
	case 2: // grouped aggregation, one or two keys (multi-key GROUP BY)
		keys := []int{rng.Intn(total)}
		if rng.Intn(2) == 0 {
			k2 := rng.Intn(total)
			if k2 != keys[0] {
				keys = append(keys, k2)
			}
		}
		root = root.Aggregate(keys, toPlanAggs(genAggs(rng, numeric)))
	}
	return root
}

func toPlanAggs(terms []AggTerm) []plan.Agg {
	out := make([]plan.Agg, len(terms))
	for i, a := range terms {
		out[i] = plan.Agg{Kind: a.Kind, Arg: a.Arg}
	}
	return out
}
