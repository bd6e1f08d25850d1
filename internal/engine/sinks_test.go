package engine

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"rfabric/internal/expr"
	"rfabric/internal/geometry"
	"rfabric/internal/plan"
	"rfabric/internal/table"
)

// TestSortGroupsDeterministicOnTiedKeys is the regression test for grouped
// output order: -0 and +0, and NaN payloads, compare equal under
// Value.Compare but are distinct groups, and so are CHAR keys that differ
// only by an embedded NUL. Before the encoding tie-break their output order
// changed from run to run. Partitions merged in any first-seen order must
// land in ROW's order too.
func TestSortGroupsDeterministicOnTiedKeys(t *testing.T) {
	sch, err := geometry.NewSchema(
		geometry.Column{Name: "f", Type: geometry.Float64, Width: 8},
		geometry.Column{Name: "i", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "c", Type: geometry.Char, Width: 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	keys := []float64{0, math.Copysign(0, -1), math.NaN(),
		math.Float64frombits(0x7ff8000000000002), math.Float64frombits(0xfff8000000000000), 1}
	// "ab\x00" is "ab" padded: one group; the embedded NULs are not.
	chars := []string{"ab", "ab\x00", "a\x00b", "", "\x00a", "b"}
	sys := MustSystem(DefaultSystemConfig())
	tbl := table.MustNew("ties", sch, table.WithBaseAddr(sys.Arena.Alloc(int64(4*len(keys)*sch.RowBytes()))))
	for rep := 0; rep < 4; rep++ {
		for i, k := range keys {
			tbl.MustAppend(0, table.F64(k), table.I64(int64(i%2)), table.Str(chars[(i+rep)%len(chars)]))
		}
	}
	all := make([]int, tbl.NumRows())
	for r := range all {
		all[r] = r
	}
	q := Query{GroupBy: []int{0, 1}, Aggregates: []AggTerm{{Kind: expr.Count}}}

	order := func(r *Result) string {
		s := ""
		for _, g := range r.Groups {
			for _, v := range g.Key {
				switch v.Type {
				case geometry.Float64:
					s += fmt.Sprintf("%x", math.Float64bits(v.Float))
				case geometry.Char:
					s += fmt.Sprintf("%q", v.Bytes)
				default:
					s += fmt.Sprint(v.Int)
				}
				s += "/"
			}
			s += fmt.Sprintf("%d ", g.Count)
		}
		return s
	}
	var want string
	for run := 0; run < 50; run++ {
		res, err := (&RowEngine{Tbl: tbl, Sys: sys, ForceScalar: run%2 == 0}).Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Groups) != len(keys) {
			t.Fatalf("%d groups, want %d distinct keys", len(res.Groups), len(keys))
		}
		got := order(res)
		if run == 0 {
			want = got
		} else if got != want {
			t.Fatalf("run %d group order\n%s\nwant\n%s", run, got, want)
		}
	}

	// The merge: the same rows spread over one to four partitions (some
	// empty) in shuffled order, so each run's partitions see the groups
	// first in a different order, on the scalar consumer's fold.
	qc := Query{GroupBy: []int{2, 0}, Aggregates: []AggTerm{{Kind: expr.Count}}}
	ref, err := (&RowEngine{Tbl: tbl, Sys: sys}).Execute(qc)
	if err != nil {
		t.Fatal(err)
	}
	want = order(ref)
	rng := rand.New(rand.NewSource(9))
	for run := 0; run < 200; run++ {
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		parts := make([]*Result, 1+rng.Intn(4))
		cuts := []int{0, len(all)}
		for range len(parts) - 1 {
			cuts = append(cuts, rng.Intn(len(all)+1))
		}
		sort.Ints(cuts)
		for p := range parts {
			var fold uint64
			cons := newConsumer(qc, sch, &fold)
			for _, r := range all[cuts[p]:cuts[p+1]] {
				cons.consumeRow(func(c int) table.Value {
					v, err := tbl.Get(r, c)
					if err != nil {
						t.Fatal(err)
					}
					return v
				})
			}
			parts[p] = cons.finish("P", 0, true)
		}
		res, err := mergePartials("PAR", qc, parts, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := order(res); got != want {
			t.Fatalf("shuffle %d over %d partitions: merged order\n%s\nwant ROW's\n%s", run, len(parts), got, want)
		}
	}
}

// TestApplySinksMatchesStableSortReference checks the finisher's typed
// stable sort and bounded top-k, run on a real group table, against
// sort.SliceStable of the canonically ordered boxed groups plus the cut:
// same rows in the same order, ties included, and the same modeled charge.
// Each generated row carries its input position as its last group key, so
// every row is its own group and the comparison sees exactly which row
// landed where.
func TestApplySinksMatchesStableSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// NaN sort keys take the full stable sort; the other trials take the
	// bounded top-k whenever the limit cuts.
	floats := []float64{-1, 0, math.Copysign(0, -1), 0.5, 2, math.NaN()}
	sch := geometry.MustSchema(
		geometry.Column{Name: "k0", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "k1", Type: geometry.Float64, Width: 8},
		geometry.Column{Name: "a0", Type: geometry.Float64, Width: 8},
		geometry.Column{Name: "a1", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "pos", Type: geometry.Int64, Width: 8},
	)
	q := Query{GroupBy: []int{0, 1, 4}, Aggregates: []AggTerm{
		{Kind: expr.Sum, Arg: expr.ColRef{Col: 2}}, {Kind: expr.Max, Arg: expr.ColRef{Col: 3}}}}
	genRows := func(n int, allEqual, withNaN bool) [][]table.Value {
		pool := floats
		if !withNaN {
			pool = floats[:len(floats)-1]
		}
		rows := make([][]table.Value, n)
		for i := range rows {
			k0, k1, a0 := int64(rng.Intn(3)), pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
			if allEqual {
				k0, k1, a0 = 1, 0.5, 2
			}
			rows[i] = []table.Value{table.I64(k0), table.F64(k1), table.F64(a0), table.I64(int64(rng.Intn(4))), table.I64(int64(i))}
		}
		return rows
	}
	genKeys := func() []plan.SortKey {
		keys := make([]plan.SortKey, 1+rng.Intn(3))
		for i := range keys {
			keys[i] = plan.SortKey{Key: -1, Agg: rng.Intn(2), Desc: rng.Intn(2) == 0}
			if rng.Intn(2) == 0 {
				keys[i] = plan.SortKey{Key: rng.Intn(2), Agg: -1, Desc: rng.Intn(2) == 0}
			}
		}
		return keys
	}

	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(40)
		sk := Sinks{Keys: genKeys()}
		switch trial % 4 {
		case 1:
			sk.HasLimit, sk.Limit = true, 0
		case 2:
			sk.HasLimit, sk.Limit = true, int64(rng.Intn(n+1))
		case 3:
			sk.HasLimit, sk.Limit = true, int64(n+rng.Intn(3))
		}
		rows := genRows(n, trial%10 == 0, trial%8 >= 6)
		want := foldRows(q, sch, rows)
		wantCycles := stableSinks(want, sk)
		sunk := q
		sunk.Sinks = sk
		res := foldRows(sunk, sch, rows)
		cycles := ApplySinks(res, sk)
		if len(res.Groups) != len(want.Groups) {
			t.Fatalf("trial %d (n=%d, %+v): %d rows, want %d", trial, n, sk, len(res.Groups), len(want.Groups))
		}
		for i := range want.Groups {
			if got, want := res.Groups[i].Key[2].Int, want.Groups[i].Key[2].Int; got != want {
				t.Fatalf("trial %d (n=%d, %+v): row %d is input %d, want %d", trial, n, sk, i, got, want)
			}
		}
		var formula uint64
		if n > 1 {
			formula = uint64(n) * uint64(bits.Len(uint(n-1))) * SortCmpCycles
		}
		if cycles != wantCycles || cycles != formula || res.Breakdown.TotalCycles != formula {
			t.Fatalf("trial %d: charged %d (total %d), want %d", trial, cycles, res.Breakdown.TotalCycles, formula)
		}
	}
}

// stableSinks is the reference for a statement's sinks over a result run
// without them, whose groups are in the canonical order: a stable sort by
// the sort keys' boxed values (Value.Compare, negated for DESC), the cut at
// the limit, and the n·⌈log₂n⌉·SortCmpCycles charge over the n groups
// before the cut, added to the breakdown and returned.
func stableSinks(res *Result, sk Sinks) uint64 {
	rows := res.Groups
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := &rows[i], &rows[j]
		for _, k := range sk.Keys {
			var c int
			if k.Key >= 0 {
				c = a.Key[k.Key].Compare(b.Key[k.Key])
			} else {
				c = a.Aggs[k.Agg].Compare(b.Aggs[k.Agg])
			}
			if k.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	n := len(rows)
	if sk.HasLimit && int64(n) > sk.Limit {
		res.Groups = rows[:sk.Limit]
	}
	if len(sk.Keys) == 0 || n < 2 {
		return 0
	}
	cycles := uint64(n) * uint64(bits.Len(uint(n-1))) * SortCmpCycles
	res.Breakdown.ComputeCycles += cycles
	res.Breakdown.TotalCycles += cycles
	return cycles
}

// TestTopNBoxesOnlyReturnedRows: on a warm engine, a LIMIT 10 top-N over
// 12,000 groups finishes on the group table and boxes ten rows, so it
// allocates less than a quarter of the bytes the same statement without
// LIMIT allocates. The comparison is withheld under -race.
func TestTopNBoxesOnlyReturnedRows(t *testing.T) {
	sch := geometry.MustSchema(
		geometry.Column{Name: "k", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "v", Type: geometry.Float64, Width: 8},
	)
	const rows, groups = 24000, 12000
	sys := MustSystem(DefaultSystemConfig())
	tbl := table.MustNew("s", sch, table.WithCapacity(rows),
		table.WithBaseAddr(sys.Arena.Alloc(int64(rows*sch.RowBytes()))))
	for i := 0; i < rows; i++ {
		tbl.MustAppend(0, table.I64(int64(i%groups)), table.F64(float64(i%977)))
	}
	all := Query{GroupBy: []int{0}, Aggregates: []AggTerm{{Kind: expr.Sum, Arg: expr.ColRef{Col: 1}}},
		Sinks: Sinks{Keys: []plan.SortKey{{Key: -1, Agg: 0, Desc: true}}}}
	top := all
	top.Sinks.Limit, top.Sinks.HasLimit = 10, true

	eng := &RowEngine{Tbl: tbl, Sys: sys}
	bytesPerQuery := func(q Query) uint64 {
		run := func() {
			res, err := Run(eng, q)
			if err != nil {
				t.Fatal(err)
			}
			ApplySinks(res, q.Sinks)
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
	full, limited := bytesPerQuery(all), bytesPerQuery(top)
	t.Logf("bytes per query: %d without LIMIT, %d with LIMIT 10", full, limited)
	if raceEnabled {
		return
	}
	if 4*limited >= full {
		t.Errorf("LIMIT 10 allocates %d bytes per query, not under a quarter of the %d without LIMIT", limited, full)
	}
}

// TestScalarAndOffloadSinksMatchApplySinks holds the scalar consumer and
// the fabric's offload fold to the finisher the batch pipeline uses: with
// the statement's sinks in the query, the run boxes no more rows than the
// limit keeps, and rows, their order, the Breakdown and ApplySinks's sort
// charge equal a run without sinks followed by the stable-sort reference
// (stableSinks) over the full group list. The table's keys are -0/+0 and two
// NaN payloads, CHAR keys with trailing and embedded NULs, and tied counts;
// w's sums are NaN in a few groups. A Q3-class join with scalar sides
// covers the scalar probe.
func TestScalarAndOffloadSinksMatchApplySinks(t *testing.T) {
	sch := geometry.MustSchema(
		geometry.Column{Name: "id", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "k", Type: geometry.Int32, Width: 4},
		geometry.Column{Name: "d", Type: geometry.Float64, Width: 8},
		geometry.Column{Name: "c", Type: geometry.Char, Width: 4},
		geometry.Column{Name: "v", Type: geometry.Float64, Width: 8},
		geometry.Column{Name: "w", Type: geometry.Float64, Width: 8},
	)
	const rows = 700
	sys := MustSystem(DefaultSystemConfig())
	tbl := table.MustNew("g", sch, table.WithCapacity(rows),
		table.WithBaseAddr(sys.Arena.Alloc(int64(rows*sch.RowBytes()))))
	ds := []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000002), 1.5, -2.25, 3}
	cs := []string{"ab", "ab\x00", "a\x00b", "", "zz", "\x00a"}
	for i := 0; i < rows; i++ {
		v := float64((i*13)%29) * 0.5
		w := v
		if i%97 == 0 {
			w = math.NaN()
		}
		tbl.MustAppend(0, table.I64(int64(i)), table.I32(int32((i*7)%53)), table.F64(ds[i%len(ds)]),
			table.Str(cs[i%len(cs)]), table.F64(v), table.F64(w))
	}
	col := func(c int) expr.Scalar { return expr.ColRef{Col: c} }
	key := func(k int, desc bool) plan.SortKey { return plan.SortKey{Key: k, Agg: -1, Desc: desc} }
	agg := func(a int, desc bool) plan.SortKey { return plan.SortKey{Key: -1, Agg: a, Desc: desc} }
	limit := func(n int64, keys ...plan.SortKey) Sinks { return Sinks{Keys: keys, Limit: n, HasLimit: true} }
	count, sum := AggTerm{Kind: expr.Count}, func(c int) AggTerm { return AggTerm{Kind: expr.Sum, Arg: col(c)} }
	cases := []struct {
		q  Query
		sk Sinks
	}{
		{Query{GroupBy: []int{1}, Aggregates: []AggTerm{count, sum(4)}}, limit(5, key(0, false))},
		{Query{GroupBy: []int{1}, Aggregates: []AggTerm{sum(4)}}, limit(7, agg(0, true))},
		{Query{GroupBy: []int{1}, Aggregates: []AggTerm{sum(4)}}, limit(0, agg(0, false))},
		{Query{GroupBy: []int{1}, Aggregates: []AggTerm{sum(4)}}, Sinks{Keys: []plan.SortKey{agg(0, true)}}},
		{Query{GroupBy: []int{2}, Aggregates: []AggTerm{count}}, limit(3, agg(0, false))},
		{Query{GroupBy: []int{2, 1}, Aggregates: []AggTerm{count}}, limit(10, agg(0, true), key(1, false))},
		{Query{GroupBy: []int{2}, Aggregates: []AggTerm{count}}, Sinks{Keys: []plan.SortKey{key(0, false)}}},
		{Query{GroupBy: []int{1}, Aggregates: []AggTerm{sum(5)}}, limit(5, agg(0, true))},
		{Query{GroupBy: []int{3}, Aggregates: []AggTerm{count, sum(4)}}, limit(3, key(0, true))},
		{Query{GroupBy: []int{3, 2}, Aggregates: []AggTerm{count}}, limit(8, agg(0, false))},
		{Query{GroupBy: []int{3, 2}, Aggregates: []AggTerm{count}}, Sinks{Limit: 4, HasLimit: true}},
		{Query{GroupBy: []int{1}, Aggregates: []AggTerm{{Kind: expr.Min, Arg: col(4)}, {Kind: expr.Max, Arg: col(5)}, {Kind: expr.Avg, Arg: col(4)}}},
			limit(6, agg(1, true), agg(2, false))},
	}
	sources := map[string]func() Source{
		"ROW scalar": func() Source { return &RowEngine{Tbl: tbl, Sys: sys, ForceScalar: true} },
		"RM scalar":  func() Source { return &RMEngine{Tbl: tbl, Sys: sys, ForceScalar: true} },
		"RM offload": func() Source { return &RMEngine{Tbl: tbl, Sys: sys, Offload: true} },
	}
	for name, mk := range sources {
		for i, c := range cases {
			run := func(sk Sinks) *Result {
				sys.ResetState()
				q := c.q
				q.Sinks = sk
				res, err := Run(mk(), q)
				if err != nil {
					t.Fatalf("%s case %d: %v", name, i, err)
				}
				return res
			}
			got := run(c.sk)
			if c.sk.HasLimit && int64(len(got.Groups)) > c.sk.Limit {
				t.Errorf("%s case %d boxed %d rows under LIMIT %d", name, i, len(got.Groups), c.sk.Limit)
			}
			gotCycles := ApplySinks(got, c.sk)
			want := run(Sinks{})
			wantCycles := stableSinks(want, c.sk)
			if err := sameSunk(got, want, gotCycles, wantCycles); err != nil {
				t.Errorf("%s case %d (%+v): %v", name, i, c.sk, err)
			}
			if name == "RM offload" && got.Offload != "group-agg" {
				t.Errorf("%s case %d ran offload %q, want group-agg", name, i, got.Offload)
			}
		}
	}

	f := newJoinPlanFixture(t, 2000, 60, 7)
	p := q3ClassPlan(f, t)
	for i, sk := range []Sinks{limit(5, agg(0, true)), limit(0, key(0, false)), Sinks{Keys: []plan.SortKey{agg(1, false)}}} {
		run := func(pushed Sinks) *Result {
			f.sys.ResetState()
			p.Consume.Sinks = pushed
			ex := &JoinExec{Plan: p,
				Probe:  &RowEngine{Tbl: f.fact, Sys: f.sys, ForceScalar: true},
				Builds: []Source{&RowEngine{Tbl: f.dim, Sys: f.sys, ForceScalar: true}}}
			res, err := ex.Execute()
			if err != nil {
				t.Fatalf("join case %d: %v", i, err)
			}
			return res
		}
		got := run(sk)
		if sk.HasLimit && int64(len(got.Groups)) > sk.Limit {
			t.Errorf("scalar join case %d boxed %d rows under LIMIT %d", i, len(got.Groups), sk.Limit)
		}
		gotCycles := ApplySinks(got, sk)
		want := run(Sinks{})
		wantCycles := stableSinks(want, sk)
		if err := sameSunk(got, want, gotCycles, wantCycles); err != nil {
			t.Errorf("scalar join case %d (%+v): %v", i, sk, err)
		}
	}
}

// sameSunk compares two sunk results: counts, Breakdown, sort charge, and
// grouped rows in order, values bit for bit.
func sameSunk(a, b *Result, aCycles, bCycles uint64) error {
	if a.RowsScanned != b.RowsScanned || a.RowsPassed != b.RowsPassed || a.Breakdown != b.Breakdown {
		return fmt.Errorf("run %d/%d %+v, want %d/%d %+v", a.RowsScanned, a.RowsPassed, a.Breakdown,
			b.RowsScanned, b.RowsPassed, b.Breakdown)
	}
	if aCycles != bCycles {
		return fmt.Errorf("sort charge %d, want %d", aCycles, bCycles)
	}
	if len(a.Groups) != len(b.Groups) {
		return fmt.Errorf("%d groups, want %d", len(a.Groups), len(b.Groups))
	}
	same := func(x, y []table.Value) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i].Type != y[i].Type || x[i].Int != y[i].Int ||
				math.Float64bits(x[i].Float) != math.Float64bits(y[i].Float) || string(x[i].Bytes) != string(y[i].Bytes) {
				return false
			}
		}
		return true
	}
	for i := range a.Groups {
		x, y := a.Groups[i], b.Groups[i]
		if x.Count != y.Count || !same(x.Key, y.Key) || !same(x.Aggs, y.Aggs) {
			return fmt.Errorf("row %d: %v %v %d, want %v %v %d", i, x.Key, x.Aggs, x.Count, y.Key, y.Aggs, y.Count)
		}
	}
	return nil
}

// TestGroupKeysOutliveTheReusedTable: an engine reuses its group table
// across statements and grouped rows decode their keys from it, so a
// result's CHAR keys must be copies. A CHAR+DOUBLE GROUP BY runs on one
// engine, then another over other rows with the key columns swapped, and
// the first result's keys must be as they were.
func TestGroupKeysOutliveTheReusedTable(t *testing.T) {
	sch := geometry.MustSchema(
		geometry.Column{Name: "c", Type: geometry.Char, Width: 4},
		geometry.Column{Name: "d", Type: geometry.Float64, Width: 8},
		geometry.Column{Name: "v", Type: geometry.Int64, Width: 8},
	)
	const rows = 600
	sys := MustSystem(DefaultSystemConfig())
	tbl := table.MustNew("k", sch, table.WithCapacity(rows),
		table.WithBaseAddr(sys.Arena.Alloc(int64(rows*sch.RowBytes()))))
	cs := []string{"ab", "ab\x00c", "zz", "\x00a", "qrst", ""}
	ds := []float64{0, math.Copysign(0, -1), math.NaN(), 1.5, -7}
	for i := 0; i < rows; i++ {
		tbl.MustAppend(0, table.Str(cs[i%len(cs)]), table.F64(ds[(i/7)%len(ds)]), table.I64(int64(i)))
	}
	first := Query{GroupBy: []int{0, 1}, Aggregates: []AggTerm{{Kind: expr.Count}}}
	second := Query{GroupBy: []int{1, 0}, Aggregates: []AggTerm{{Kind: expr.Count}},
		Selection: expr.Conjunction{{Col: 2, Op: expr.Ge, Operand: table.I64(rows / 2)}}}
	top := Sinks{Keys: []plan.SortKey{{Key: -1, Agg: 0, Desc: true}}, Limit: 5, HasLimit: true}
	for _, eng := range []Source{&RowEngine{Tbl: tbl, Sys: sys}, &RMEngine{Tbl: tbl, Sys: sys}} {
		for _, sk := range []Sinks{{}, top} {
			first.Sinks, second.Sinks = sk, sk
			res, err := Run(eng, first)
			if err != nil {
				t.Fatal(err)
			}
			want := make([][2]string, len(res.Groups))
			for i, g := range res.Groups {
				want[i] = [2]string{fmt.Sprintf("%q", g.Key[0].Bytes), fmt.Sprintf("%#x", math.Float64bits(g.Key[1].Float))}
			}
			if _, err := Run(eng, second); err != nil {
				t.Fatal(err)
			}
			for i, g := range res.Groups {
				got := [2]string{fmt.Sprintf("%q", g.Key[0].Bytes), fmt.Sprintf("%#x", math.Float64bits(g.Key[1].Float))}
				if got != want[i] {
					t.Fatalf("%s %+v: group %d key changed from %v to %v by the next statement", eng.Name(), sk, i, want[i], got)
				}
			}
		}
	}
}
