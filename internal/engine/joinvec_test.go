package engine

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rfabric/internal/colstore"
	"rfabric/internal/expr"
	"rfabric/internal/geometry"
	"rfabric/internal/index"
	"rfabric/internal/obs"
	"rfabric/internal/plan"
	"rfabric/internal/table"
)

// The batched join's modeled execution is pinned by the execution goldens
// (golden_test.go): the Result down to float bits, the Breakdown, the
// DRAM/fabric/hierarchy counters, the span tree and the timeline of every
// variant, recorded from the row-at-a-time join the batch sinks replaced.

// joinTwin is one deterministic join fixture: tables by name (the probe
// table with a B+tree on column 0, which must be integral), their column
// stores when no table versions rows, and the join tree.
type joinTwin struct {
	sys    *System
	tables map[string]*table.Table
	stores map[string]*colstore.Store
	idx    *index.BTree
	root   *plan.Node
	probe  string
}

// lower turns the twin's tree into a fresh JoinPlan. With idxBound set, the
// probe side's selection also bounds column 0 from below, so an IDX probe
// applies.
func (f *joinTwin) lower(t *testing.T, idxBound *int64) *JoinPlan {
	t.Helper()
	jp, _, err := FromJoinPlan(f.root, func(name string) (*geometry.Schema, error) {
		return f.tables[name].Schema(), nil
	})
	if err != nil {
		t.Fatalf("lowering join: %v\nplan:\n%s", err, f.root.Explain(nil))
	}
	if idxBound != nil {
		jp.Probe.Query.Selection = append(jp.Probe.Query.Selection[:len(jp.Probe.Query.Selection):len(jp.Probe.Query.Selection)],
			expr.Predicate{Col: 0, Op: expr.Ge, Operand: table.I64(*idxBound)})
	}
	return jp
}

// twinRun is what one execution leaves behind for comparison: its Result,
// its canonical span tree (spansJSON) and its timeline's JSON.
type twinRun struct {
	res      *Result
	spans    string
	timeline string
}

// joinVariant names how a join's sides are sourced.
type joinVariant string

const (
	viaROW     joinVariant = "ROW"
	viaRM      joinVariant = "RM"
	viaOffload joinVariant = "RM+offload"
	viaCOL     joinVariant = "COL"
	viaIDX     joinVariant = "IDX" // IDX probe, ROW builds
	// viaMixed runs RM sides like viaRM. Its golden runs were recorded
	// with the builds on the row-at-a-time path and the probe batched, a
	// mix whose output every all-batched run must still reproduce.
	viaMixed joinVariant = "mixed"
)

// source builds one side's Source on sys for the variant.
func (f *joinTwin) source(sys *System, v joinVariant, name string, probe bool, tr *obs.Tracer) Source {
	tbl := f.tables[name]
	switch v {
	case viaROW:
		return &RowEngine{Tbl: tbl, Sys: sys, Tracer: tr}
	case viaRM, viaMixed:
		return &RMEngine{Tbl: tbl, Sys: sys, Tracer: tr}
	case viaOffload:
		return &RMEngine{Tbl: tbl, Sys: sys, Tracer: tr, Offload: true}
	case viaCOL:
		return &ColEngine{Store: f.stores[name], Sys: sys, Tracer: tr}
	case viaIDX:
		if !probe {
			return &RowEngine{Tbl: tbl, Sys: sys, Tracer: tr}
		}
		return &IndexEngine{Tbl: tbl, Sys: sys, Idx: f.idx, Tracer: tr}
	}
	panic("unknown join variant " + string(v))
}

// run executes jp once on the twin's system under a fresh tracer and
// timeline.
func (f *joinTwin) run(t *testing.T, jp *JoinPlan, v joinVariant) twinRun {
	t.Helper()
	f.sys.ResetState()
	tr := obs.NewTracer("query")
	tl := obs.NewTimeline(997, f.sys.Cfg.DRAM.Banks)
	tr.AttachTimeline(tl)
	f.sys.AttachTimeline(tl)
	defer f.sys.DetachTimeline()
	ex := &JoinExec{Plan: jp, Probe: f.source(f.sys, v, jp.Probe.Table, true, tr)}
	for _, st := range jp.Stages {
		ex.Builds = append(ex.Builds, f.source(f.sys, v, st.Side.Table, false, tr))
	}
	res, err := ex.Execute()
	if err != nil {
		t.Fatalf("%s: %v\nplan:\n%s", v, err, f.root.Explain(nil))
	}
	tl.Finish(res.Breakdown.TotalCycles)
	return twinRun{res: res, spans: spansJSON(t, tr), timeline: mustJSON(t, tl)}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// compareTwins runs every applicable variant of f's join, plus each PAR
// morsel's probe slice through JoinExec on a System clone, and checks the
// runs against the subtest's golden entry.
func compareTwins(t *testing.T, g *goldenFile, f *joinTwin, mvcc bool, morselRows int) {
	t.Helper()
	var runs []goldenRun
	record := func(name string, r twinRun, sys *System) {
		runs = append(runs, goldenRun{name: name, twinRun: r, hw: sys.HW()})
	}
	variants := []joinVariant{viaROW, viaRM, viaOffload, viaMixed}
	if !mvcc {
		variants = append(variants, viaCOL)
	}
	for _, v := range variants {
		record(string(v), f.run(t, f.lower(t, nil), v), f.sys)
	}
	if f.idx != nil {
		// The index is over the probe's column 0: bound it just above the
		// smallest key, read from the rows the index was built over.
		tbl := f.tables[f.probe]
		var lo int64
		for r := 0; r < tbl.NumRows(); r++ {
			v, err := tbl.Get(r, 0)
			if err != nil {
				t.Fatal(err)
			}
			if r == 0 || v.Int < lo {
				lo = v.Int
			}
		}
		bound := lo + 1
		record(string(viaIDX), f.run(t, f.lower(t, &bound), viaIDX), f.sys)
	}

	probe := f.tables[f.probe]
	for i, lo := 0, 0; ; i, lo = i+1, lo+morselRows {
		hi := min(lo+morselRows, probe.NumRows())
		f.sys.ResetState()
		sys, err := f.sys.Clone()
		if err != nil {
			t.Fatal(err)
		}
		slice, err := probe.Slice(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		jp := f.lower(t, nil)
		tr := obs.NewTracer("morsel")
		ex := &JoinExec{Plan: jp, Probe: &RMEngine{Tbl: slice, Sys: sys, Tracer: tr, Offload: i%2 == 0}}
		for _, st := range jp.Stages {
			ex.Builds = append(ex.Builds, &RMEngine{Tbl: f.tables[st.Side.Table], Sys: sys, Tracer: tr})
		}
		res, err := ex.Execute()
		if err != nil {
			t.Fatalf("morsel [%d,%d): %v", lo, hi, err)
		}
		record(fmt.Sprintf("PAR morsel [%d,%d)", lo, hi), twinRun{res: res, spans: spansJSON(t, tr)}, sys)
		if hi == probe.NumRows() {
			break
		}
	}
	g.check(t, subtestKey(t), runs...)
}

// TestJoinBatchedMatchesScalarExactly is the join's charge-replay property
// test over joinEquivalenceTrial's generator: random schemas, data with
// frequent duplicate keys, empty sides, MVCC snapshots, pushed-down side
// predicates, and every consumption shape.
func TestJoinBatchedMatchesScalarExactly(t *testing.T) {
	g := openGoldens(t, "join")
	const plainTrials, mvccTrials = 40, 20
	for i := 0; i < plainTrials+mvccTrials; i++ {
		mvcc := i >= plainTrials
		seed := int64(5150 + i)
		t.Run(fmt.Sprintf("trial%03d", i), func(t *testing.T) {
			compareTwins(t, g, randomJoinTwin(t, seed, mvcc), mvcc, 16+int(seed%5)*23)
		})
	}
}

// randomJoinTwin builds the generator's two-table join for a seed.
func randomJoinTwin(t *testing.T, seed int64, mvcc bool) *joinTwin {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sys := MustSystem(DefaultSystemConfig())
	probeSch, buildSch := genSchema(rng), genSchema(rng)
	probe := genJoinTable(t, sys, "probe", probeSch, genJoinRows(rng), mvcc, rng)
	build := genJoinTable(t, sys, "build", buildSch, genJoinRows(rng), mvcc, rng)
	var snapshot *uint64
	if mvcc {
		ts := uint64(rng.Intn(6))
		snapshot = &ts
	}
	f := &joinTwin{
		sys:    sys,
		tables: map[string]*table.Table{"probe": probe, "build": build},
		root:   genJoinTree(rng, probeSch, buildSch, snapshot),
		probe:  "probe",
	}
	f.addStructures(t, mvcc)
	return f
}

// addStructures builds the column stores (unversioned tables only) and the
// probe table's index, in a fixed order so twins get identical addresses.
func (f *joinTwin) addStructures(t *testing.T, mvcc bool) {
	t.Helper()
	if !mvcc {
		f.stores = map[string]*colstore.Store{}
		for _, name := range []string{"probe", "build", "fact", "dim1", "dim2"} {
			tbl, ok := f.tables[name]
			if !ok {
				continue
			}
			store, err := colstore.FromTable(tbl, f.sys.Arena)
			if err != nil {
				t.Fatal(err)
			}
			f.stores[name] = store
		}
	}
	probe := f.tables[f.probe]
	if probe.NumRows() > 0 {
		idx, err := index.Build(probe, 0, f.sys.Arena)
		if err != nil {
			t.Fatal(err)
		}
		f.idx = idx
	}
}

// The boundary fixture: fact ⋈ dim1 ⋈ dim2 with hand-picked key domains.
//
//	fact: k BIGINT, f DOUBLE, c CHAR(6), x INT, v DOUBLE   (combined 0..4)
//	dim1: k BIGINT, f DOUBLE, c CHAR(6), d2 BIGINT, w DOUBLE (5..9)
//	dim2: k BIGINT, n CHAR(4), z DOUBLE                    (10..12)
//
// Integer keys repeat on both build sides (fan-out 2 at each stage), float
// keys include -0, +0 and NaN, CHAR keys differ only by trailing vs
// embedded NUL.
func boundaryTwin(t *testing.T, mvcc, emptyBuild, emptyProbe bool, root func() *plan.Node) *joinTwin {
	t.Helper()
	sys := MustSystem(DefaultSystemConfig())
	negZero := math.Copysign(0, -1)
	floats := []float64{0, negZero, math.NaN(), 1.5}
	chars := []string{"ab", "ab\x00", "ab\x00c", "zz"}
	factSch := geometry.MustSchema(
		geometry.Column{Name: "k", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "f", Type: geometry.Float64, Width: 8},
		geometry.Column{Name: "c", Type: geometry.Char, Width: 6},
		geometry.Column{Name: "x", Type: geometry.Int32, Width: 4},
		geometry.Column{Name: "v", Type: geometry.Float64, Width: 8},
	)
	dim1Sch := geometry.MustSchema(
		geometry.Column{Name: "k", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "f", Type: geometry.Float64, Width: 8},
		geometry.Column{Name: "c", Type: geometry.Char, Width: 6},
		geometry.Column{Name: "d2", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "w", Type: geometry.Float64, Width: 8},
	)
	dim2Sch := geometry.MustSchema(
		geometry.Column{Name: "k", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "n", Type: geometry.Char, Width: 4},
		geometry.Column{Name: "z", Type: geometry.Float64, Width: 8},
	)
	var fact, dim1, dim2 [][]table.Value
	if !emptyProbe {
		for i := 0; i < 300; i++ {
			fact = append(fact, []table.Value{
				table.I64(int64(i % 5)), table.F64(floats[i%4]), table.Str(chars[(i/3)%4]),
				table.I32(int32(10 * (1 + i%3))), table.F64(float64(i%17) / 4),
			})
		}
	}
	if !emptyBuild {
		for i := 0; i < 10; i++ {
			dim1 = append(dim1, []table.Value{
				table.I64(int64(i % 4)), table.F64(floats[i%4]), table.Str(chars[i%4]),
				table.I64(int64(10 * (1 + i%2))), table.F64(float64(i) + 0.25),
			})
		}
	}
	for i := 0; i < 6; i++ {
		dim2 = append(dim2, []table.Value{
			table.I64(int64(10 * (1 + i%3))), table.Str([]string{"n1", "n2\x00x"}[i%2]), table.F64(float64(i) * 1.5),
		})
	}
	f := &joinTwin{
		sys: sys,
		tables: map[string]*table.Table{
			"fact": buildJoinTable(t, sys, "fact", factSch, fact, mvcc),
			"dim1": buildJoinTable(t, sys, "dim1", dim1Sch, dim1, false),
			"dim2": buildJoinTable(t, sys, "dim2", dim2Sch, dim2, false),
		},
		root:  root(),
		probe: "fact",
	}
	f.addStructures(t, mvcc)
	return f
}

// TestJoinBatchedBoundaries pins the batched join to its golden entries on
// the join's corner cases, and checks the unversioned runs against the
// nested-loop reference.
func TestJoinBatchedBoundaries(t *testing.T) {
	aggs := []plan.Agg{{Kind: expr.Sum, Arg: expr.ColRef{Col: 4}}, {Kind: expr.Count}, {Kind: expr.Min, Arg: expr.ColRef{Col: 9}}}
	scan := func(name string, snap *uint64, preds expr.Conjunction) *plan.Node {
		n := plan.NewScan(name, "", nil)
		n.Snapshot = snap
		if len(preds) > 0 {
			return n.Filter(preds)
		}
		return n
	}
	cases := []struct {
		name    string
		root    func(snap *uint64) *plan.Node
		wantRef bool
	}{
		{"int-fanout-q10-shape", func(snap *uint64) *plan.Node {
			// Stage 1's key is dim1.d2 — a build-side column.
			return scan("fact", snap, nil).Join(scan("dim1", nil, nil), 0, 0).
				Join(scan("dim2", nil, nil), 8, 0).Aggregate([]int{11}, aggs)
		}, true},
		{"int-fanout-probe-key", func(snap *uint64) *plan.Node {
			// Stage 1's key is fact.x (INT) against dim2.k (BIGINT).
			return scan("fact", snap, expr.Conjunction{{Col: 4, Op: expr.Lt, Operand: table.F64(3)}}).
				Join(scan("dim1", nil, nil), 0, 0).
				Join(scan("dim2", nil, nil), 3, 0).Project([]int{0, 2, 7, 11, 12})
		}, true},
		{"float-keys", func(snap *uint64) *plan.Node {
			return scan("fact", snap, nil).Join(scan("dim1", nil, nil), 1, 1).Aggregate([]int{1, 6}, aggs)
		}, true},
		{"char-keys", func(snap *uint64) *plan.Node {
			return scan("fact", snap, nil).Join(scan("dim1", nil, nil), 2, 2).Aggregate([]int{2, 7}, aggs)
		}, true},
		{"char-keys-projection", func(snap *uint64) *plan.Node {
			return scan("fact", snap, nil).Join(scan("dim1", nil, expr.Conjunction{{Col: 4, Op: expr.Gt, Operand: table.F64(1)}}), 2, 2).
				Project([]int{2, 4, 7, 9})
		}, true},
		{"scalar-aggregation", func(snap *uint64) *plan.Node {
			return scan("fact", snap, nil).Join(scan("dim1", nil, nil), 0, 0).
				Aggregate(nil, []plan.Agg{{Kind: expr.Avg, Arg: expr.Binary{Op: expr.Mul, L: expr.ColRef{Col: 4}, R: expr.ColRef{Col: 9}}}, {Kind: expr.Max, Arg: expr.ColRef{Col: 3}}})
		}, true},
	}
	g := openGoldens(t, "join_boundary")
	for _, tc := range cases {
		for _, shape := range []struct {
			name                         string
			mvcc, emptyBuild, emptyProbe bool
		}{{"plain", false, false, false}, {"empty-build", false, true, false}, {"empty-probe", false, false, true}, {"mvcc", true, false, false}} {
			t.Run(tc.name+"/"+shape.name, func(t *testing.T) {
				var snap *uint64
				if shape.mvcc {
					ts := uint64(1)
					snap = &ts
				}
				f := boundaryTwin(t, shape.mvcc, shape.emptyBuild, shape.emptyProbe, func() *plan.Node { return tc.root(snap) })
				compareTwins(t, g, f, shape.mvcc, 64)
				if !tc.wantRef || shape.mvcc {
					return
				}
				jp := f.lower(t, nil)
				var builds [][][]table.Value
				for _, st := range jp.Stages {
					builds = append(builds, materialize(f.tables[st.Side.Table]))
				}
				want := referenceJoin(jp, materialize(f.tables["fact"]), builds...)
				got := f.run(t, jp, viaRM).res
				if err := want.EquivalentTo(got, 0); err != nil {
					t.Fatalf("batched join disagrees with the nested-loop reference: %v", err)
				}
			})
		}
	}
}
