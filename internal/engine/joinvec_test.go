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

// The batched join promises the scalar join's modeled execution exactly:
// the same Result down to float bits, the same Breakdown, the same
// DRAM/fabric/hierarchy trajectory, the same span tree and timeline. Every
// comparison runs the scalar join (ForceScalar, or runScalar for IDX) on
// one system and the batched join on an identically built twin, because RM
// executions allocate delivery windows from the system arena.

// scalarSource pins a source without a ForceScalar knob (IDX) to the
// tuple-at-a-time pipeline: its opened scan drops the batch program, the
// way the pipeline drives any scan whose program is absent.
type scalarSource struct{ Source }

func (s scalarSource) openScan(q Query, sp *obs.Span) (*scan, error) {
	sc, err := s.Source.openScan(q, sp)
	if err == nil {
		sc.prog = nil
	}
	return sc, err
}

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

// twinRun is what one execution leaves behind for comparison.
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
	viaIDX     joinVariant = "IDX"   // IDX probe, ROW builds
	viaMixed   joinVariant = "mixed" // scalar RM builds, probe per mode
)

// source builds one side's Source on sys for the variant; scalar pins it
// to the tuple-at-a-time pipeline.
func (f *joinTwin) source(sys *System, v joinVariant, name string, probe, scalar bool, tr *obs.Tracer) Source {
	tbl := f.tables[name]
	switch v {
	case viaROW:
		return &RowEngine{Tbl: tbl, Sys: sys, Tracer: tr, ForceScalar: scalar}
	case viaRM:
		return &RMEngine{Tbl: tbl, Sys: sys, Tracer: tr, ForceScalar: scalar}
	case viaOffload:
		return &RMEngine{Tbl: tbl, Sys: sys, Tracer: tr, ForceScalar: scalar, Offload: true}
	case viaCOL:
		return &ColEngine{Store: f.stores[name], Sys: sys, Tracer: tr, ForceScalar: scalar}
	case viaIDX:
		if !probe {
			return &RowEngine{Tbl: tbl, Sys: sys, Tracer: tr, ForceScalar: scalar}
		}
		idx := &IndexEngine{Tbl: tbl, Sys: sys, Idx: f.idx, Tracer: tr}
		if scalar {
			return scalarSource{idx}
		}
		return idx
	case viaMixed:
		return &RMEngine{Tbl: tbl, Sys: sys, Tracer: tr, ForceScalar: scalar || !probe}
	}
	panic("unknown join variant " + string(v))
}

// run executes jp once on the twin's system under a fresh tracer and
// timeline.
func (f *joinTwin) run(t *testing.T, jp *JoinPlan, v joinVariant, scalar bool) twinRun {
	t.Helper()
	f.sys.ResetState()
	tr := obs.NewTracer("query")
	tl := obs.NewTimeline(997, f.sys.Cfg.DRAM.Banks)
	tr.AttachTimeline(tl)
	f.sys.AttachTimeline(tl)
	defer f.sys.DetachTimeline()
	ex := &JoinExec{Plan: jp, Probe: f.source(f.sys, v, jp.Probe.Table, true, scalar, tr)}
	for _, st := range jp.Stages {
		ex.Builds = append(ex.Builds, f.source(f.sys, v, st.Side.Table, false, scalar, tr))
	}
	res, err := ex.Execute()
	if err != nil {
		t.Fatalf("%s scalar=%v: %v\nplan:\n%s", v, scalar, err, f.root.Explain(nil))
	}
	tl.Finish(res.Breakdown.TotalCycles)
	return twinRun{res: res, spans: mustJSON(t, tr.Root()), timeline: mustJSON(t, tl)}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// requireTwinMatch compares a scalar run with its batched twin exactly.
func requireTwinMatch(t *testing.T, name string, scalar, batched twinRun, scalarSys, batchedSys *System) {
	t.Helper()
	requireExactMatch(t, name, scalar.res, batched.res, scalarSys, batchedSys)
	if got := batched.res.Breakdown.TotalCycles; scalar.res.Breakdown.TotalCycles != got {
		t.Fatalf("%s: TotalCycles %d != %d", name, scalar.res.Breakdown.TotalCycles, got)
	}
	if scalar.spans != batched.spans {
		t.Fatalf("%s: span trees differ\nscalar:  %s\nbatched: %s", name, scalar.spans, batched.spans)
	}
	if scalar.timeline != batched.timeline {
		t.Fatalf("%s: timelines differ\nscalar:  %s\nbatched: %s", name, scalar.timeline, batched.timeline)
	}
}

// compareTwins runs every applicable variant of the twins' join scalar on
// a and batched on b, plus each PAR morsel's probe slice through JoinExec
// on identical System clones.
func compareTwins(t *testing.T, a, b *joinTwin, mvcc bool, morselRows int) {
	t.Helper()
	variants := []joinVariant{viaROW, viaRM, viaOffload, viaMixed}
	if !mvcc {
		variants = append(variants, viaCOL)
	}
	for _, v := range variants {
		sa, sb := a.run(t, a.lower(t, nil), v, true), b.run(t, b.lower(t, nil), v, false)
		requireTwinMatch(t, string(v), sa, sb, a.sys, b.sys)
	}
	if a.idx != nil {
		lo, _ := a.idx.KeyRange()
		bound := lo + 1
		sa, sb := a.run(t, a.lower(t, &bound), viaIDX, true), b.run(t, b.lower(t, &bound), viaIDX, false)
		requireTwinMatch(t, string(viaIDX), sa, sb, a.sys, b.sys)
	}

	probe := a.tables[a.probe]
	for i, lo := 0, 0; ; i, lo = i+1, lo+morselRows {
		hi := min(lo+morselRows, probe.NumRows())
		morsel := func(f *joinTwin, scalar bool) (twinRun, *System) {
			f.sys.ResetState()
			sys, err := f.sys.Clone()
			if err != nil {
				t.Fatal(err)
			}
			slice, err := f.tables[f.probe].Slice(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			jp := f.lower(t, nil)
			tr := obs.NewTracer("morsel")
			ex := &JoinExec{Plan: jp, Probe: &RMEngine{Tbl: slice, Sys: sys, Tracer: tr, ForceScalar: scalar, Offload: i%2 == 0}}
			for _, st := range jp.Stages {
				ex.Builds = append(ex.Builds, &RMEngine{Tbl: f.tables[st.Side.Table], Sys: sys, Tracer: tr, ForceScalar: scalar})
			}
			res, err := ex.Execute()
			if err != nil {
				t.Fatalf("morsel [%d,%d) scalar=%v: %v", lo, hi, scalar, err)
			}
			return twinRun{res: res, spans: mustJSON(t, tr.Root())}, sys
		}
		sa, sysA := morsel(a, true)
		sb, sysB := morsel(b, false)
		requireTwinMatch(t, fmt.Sprintf("PAR morsel [%d,%d)", lo, hi), sa, sb, sysA, sysB)
		if hi == probe.NumRows() {
			break
		}
	}
}

// TestJoinBatchedMatchesScalarExactly is the join's charge-replay property
// test over joinEquivalenceTrial's generator: random schemas, data with
// frequent duplicate keys, empty sides, MVCC snapshots, pushed-down side
// predicates, and every consumption shape.
func TestJoinBatchedMatchesScalarExactly(t *testing.T) {
	const plainTrials, mvccTrials = 40, 20
	for i := 0; i < plainTrials+mvccTrials; i++ {
		mvcc := i >= plainTrials
		seed := int64(5150 + i)
		t.Run(fmt.Sprintf("trial%03d", i), func(t *testing.T) {
			a, b := randomJoinTwin(t, seed, mvcc), randomJoinTwin(t, seed, mvcc)
			compareTwins(t, a, b, mvcc, 16+int(seed%5)*23)
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

// TestJoinBatchedBoundaries pins the batched join to the scalar join on the
// join's corner cases, and checks the unversioned runs against the
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
				mk := func() *joinTwin {
					return boundaryTwin(t, shape.mvcc, shape.emptyBuild, shape.emptyProbe, func() *plan.Node { return tc.root(snap) })
				}
				a, b := mk(), mk()
				compareTwins(t, a, b, shape.mvcc, 64)
				if !tc.wantRef || shape.mvcc {
					return
				}
				jp := b.lower(t, nil)
				var builds [][][]table.Value
				for _, st := range jp.Stages {
					builds = append(builds, materialize(b.tables[st.Side.Table]))
				}
				want := referenceJoin(jp, materialize(b.tables["fact"]), builds...)
				got := b.run(t, jp, viaRM, false).res
				if err := want.EquivalentTo(got, 0); err != nil {
					t.Fatalf("batched join disagrees with the nested-loop reference: %v", err)
				}
			})
		}
	}
}
