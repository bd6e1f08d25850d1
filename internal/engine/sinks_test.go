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
// Value.Compare but are distinct groups. The scalar consumer produces its
// groups in map-iteration order, so before the encoding tie-break their
// output order changed from run to run.
func TestSortGroupsDeterministicOnTiedKeys(t *testing.T) {
	sch, err := geometry.NewSchema(
		geometry.Column{Name: "f", Type: geometry.Float64, Width: 8},
		geometry.Column{Name: "i", Type: geometry.Int64, Width: 8},
	)
	if err != nil {
		t.Fatal(err)
	}
	keys := []float64{0, math.Copysign(0, -1), math.NaN(),
		math.Float64frombits(0x7ff8000000000002), math.Float64frombits(0xfff8000000000000), 1}
	sys := MustSystem(DefaultSystemConfig())
	tbl := table.MustNew("ties", sch, table.WithBaseAddr(sys.Arena.Alloc(int64(4*len(keys)*sch.RowBytes()))))
	for rep := 0; rep < 4; rep++ {
		for i, k := range keys {
			tbl.MustAppend(0, table.F64(k), table.I64(int64(i%2)))
		}
	}
	q := Query{GroupBy: []int{0, 1}, Aggregates: []AggTerm{{Kind: expr.Count}}}

	order := func(r *Result) string {
		s := ""
		for _, g := range r.Groups {
			s += fmt.Sprintf("%x/%d ", math.Float64bits(g.Key[0].Float), g.Key[1].Int)
		}
		return s
	}
	// sortGroups alone, over shuffled inputs.
	rng := rand.New(rand.NewSource(9))
	var rows []GroupRow
	for _, k := range keys {
		for i := int64(0); i < 2; i++ {
			rows = append(rows, GroupRow{Key: []table.Value{table.F64(k), table.I64(i)}})
		}
	}
	var want string
	for run := 0; run < 200; run++ {
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		sortGroups(rows)
		if got := order(&Result{Groups: rows}); run == 0 {
			want = got
		} else if got != want {
			t.Fatalf("shuffle %d: group order\n%s\nwant\n%s", run, got, want)
		}
	}

	want = ""
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
}

// TestApplySinksMatchesStableSortReference checks the typed stable sort and
// the bounded top-k against sort.SliceStable plus truncation: same rows in
// the same order, ties included, and the same modeled charge.
func TestApplySinksMatchesStableSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// NaN sort keys take the full stable sort; the other trials take the
	// bounded top-k whenever the limit cuts.
	floats := []float64{-1, 0, math.Copysign(0, -1), 0.5, 2, math.NaN()}
	genRows := func(n int, allEqual, withNaN bool) []GroupRow {
		pool := floats
		if !withNaN {
			pool = floats[:len(floats)-1]
		}
		rows := make([]GroupRow, n)
		for i := range rows {
			k0, k1, a0 := int64(rng.Intn(3)), pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
			if allEqual {
				k0, k1, a0 = 1, 0.5, 2
			}
			// Count carries the input position so the comparison below
			// sees exactly which row landed where.
			rows[i] = GroupRow{
				Key:   []table.Value{table.I64(k0), table.F64(k1)},
				Aggs:  []table.Value{table.F64(a0), table.I64(int64(rng.Intn(4)))},
				Count: int64(i),
			}
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
	reference := func(rows []GroupRow, sk Sinks) []GroupRow {
		ref := append([]GroupRow(nil), rows...)
		sort.SliceStable(ref, func(i, j int) bool {
			a, b := &ref[i], &ref[j]
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
		if sk.HasLimit && int64(len(ref)) > sk.Limit {
			ref = ref[:sk.Limit]
		}
		return ref
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
		want := reference(rows, sk)
		res := &Result{Groups: append([]GroupRow(nil), rows...)}
		cycles := ApplySinks(res, sk)
		if len(res.Groups) != len(want) {
			t.Fatalf("trial %d (n=%d, %+v): %d rows, want %d", trial, n, sk, len(res.Groups), len(want))
		}
		for i := range want {
			if res.Groups[i].Count != want[i].Count {
				t.Fatalf("trial %d (n=%d, %+v): row %d is input %d, want %d",
					trial, n, sk, i, res.Groups[i].Count, want[i].Count)
			}
		}
		var wantCycles uint64
		if n > 1 {
			wantCycles = uint64(n) * uint64(bits.Len(uint(n-1))) * SortCmpCycles
		}
		if cycles != wantCycles || res.Breakdown.TotalCycles != wantCycles {
			t.Fatalf("trial %d: charged %d (total %d), want %d", trial, cycles, res.Breakdown.TotalCycles, wantCycles)
		}
	}
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
	q := Query{GroupBy: []int{0}, Aggregates: []AggTerm{{Kind: expr.Sum, Arg: expr.ColRef{Col: 1}}}}
	all := Sinks{Keys: []plan.SortKey{{Key: -1, Agg: 0, Desc: true}}}
	top := all
	top.Limit, top.HasLimit = 10, true

	eng := &RowEngine{Tbl: tbl, Sys: sys}
	bytesPerQuery := func(sk Sinks) uint64 {
		run := func() {
			res, err := RunSinks(eng, q, sk)
			if err != nil {
				t.Fatal(err)
			}
			ApplySinks(res, sk)
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
