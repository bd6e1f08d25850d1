package shard

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"rfabric/internal/engine"
	"rfabric/internal/expr"
	"rfabric/internal/geometry"
	"rfabric/internal/plan"
	"rfabric/internal/table"
)

func testSchema() *geometry.Schema {
	return geometry.MustSchema(
		geometry.Column{Name: "id", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "grp", Type: geometry.Int32, Width: 4},
		geometry.Column{Name: "amount", Type: geometry.Float64, Width: 8},
		geometry.Column{Name: "tag", Type: geometry.Char, Width: 4},
	)
}

// newSharded builds 4 shards over id: (-inf,250), [250,500), [500,750), [750,inf).
func newSharded(t *testing.T, rows int) *Table {
	t.Helper()
	st, err := New("t", testSchema(), 0, []int64{250, 500, 750}, rows, engine.DefaultSystemConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	tags := []string{"a", "b"}
	for i := 0; i < rows; i++ {
		err := st.Insert(
			table.I64(int64(i%1000)),
			table.I32(int32(i%7)),
			table.F64(float64(i)),
			table.Str(tags[rng.Intn(2)]),
		)
		if err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// unsharded builds the single-table reference holding newSharded's rows.
func unsharded(t *testing.T, rows int) (*table.Table, *engine.System) {
	t.Helper()
	sys := engine.MustSystem(engine.DefaultSystemConfig())
	ref := table.MustNew("ref", testSchema(),
		table.WithCapacity(rows), table.WithBaseAddr(sys.Arena.Alloc(int64(rows*testSchema().RowBytes()))))
	rng := rand.New(rand.NewSource(23))
	tags := []string{"a", "b"}
	for i := 0; i < rows; i++ {
		ref.MustAppend(1, table.I64(int64(i%1000)), table.I32(int32(i%7)), table.F64(float64(i)), table.Str(tags[rng.Intn(2)]))
	}
	return ref, sys
}

func TestRoutingSpreadsRows(t *testing.T) {
	st := newSharded(t, 2000)
	rows := st.ShardRows()
	if len(rows) != 4 {
		t.Fatalf("shards = %d", len(rows))
	}
	total := 0
	for s, n := range rows {
		if n == 0 {
			t.Errorf("shard %d is empty", s)
		}
		total += n
	}
	if total != 2000 {
		t.Errorf("rows lost in routing: %d", total)
	}
}

func TestRoutingIsByKeyRange(t *testing.T) {
	st, err := New("t", testSchema(), 0, []int64{100}, 10, engine.DefaultSystemConfig())
	if err != nil {
		t.Fatal(err)
	}
	_ = st.Insert(table.I64(99), table.I32(0), table.F64(0), table.Str("x"))
	_ = st.Insert(table.I64(100), table.I32(0), table.F64(0), table.Str("x"))
	rows := st.ShardRows()
	if rows[0] != 1 || rows[1] != 1 {
		t.Errorf("routing wrong: %v", rows)
	}
}

func TestScanMatchesUnsharded(t *testing.T) {
	st := newSharded(t, 1200)
	q := engine.Query{
		Projection: []int{0, 2},
		Selection:  expr.Conjunction{{Col: 1, Op: expr.Lt, Operand: table.I32(4)}},
	}
	got, err := st.execute(q)
	if err != nil {
		t.Fatal(err)
	}

	ref, sys := unsharded(t, 1200)
	want, err := (&engine.RMEngine{Tbl: ref, Sys: sys, PushSelection: true}).Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if got.RowsPassed != want.RowsPassed || got.Checksum != want.Checksum {
		t.Errorf("sharded scan diverges: %d/%#x vs %d/%#x",
			got.RowsPassed, got.Checksum, want.RowsPassed, want.Checksum)
	}
	if got.Morsels != 4 {
		t.Errorf("unpruned scan touched %d shards", got.Morsels)
	}
}

func TestPruning(t *testing.T) {
	st := newSharded(t, 2000)
	q := engine.Query{
		Projection: []int{0},
		Selection: expr.Conjunction{
			{Col: 0, Op: expr.Ge, Operand: table.I64(300)},
			{Col: 0, Op: expr.Lt, Operand: table.I64(400)},
		},
	}
	res, err := st.execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Morsels != 1 {
		t.Errorf("key range [300,400) touched %d shards, want 1", res.Morsels)
	}
	if res.RowsPassed == 0 {
		t.Error("pruned query found nothing")
	}

	full, err := st.execute(engine.Query{Projection: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Breakdown.TotalCycles >= full.Breakdown.TotalCycles {
		t.Errorf("pruned query (%d cycles) not cheaper than full scan (%d)", res.Breakdown.TotalCycles, full.Breakdown.TotalCycles)
	}
}

func TestPruneToNothing(t *testing.T) {
	st := newSharded(t, 100)
	q := engine.Query{
		Projection: []int{0},
		Selection: expr.Conjunction{
			{Col: 0, Op: expr.Gt, Operand: table.I64(500)},
			{Col: 0, Op: expr.Lt, Operand: table.I64(400)},
		},
	}
	res, err := st.execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Morsels != 0 || res.RowsPassed != 0 {
		t.Errorf("contradictory range executed: %+v", res)
	}
}

// TestPruneAtKeyEdges: id > MaxInt64 and id < MinInt64 admit no key, so
// pruning keeps no shard (one past either end must not wrap around).
func TestPruneAtKeyEdges(t *testing.T) {
	st := newSharded(t, 100)
	for _, p := range []expr.Predicate{
		{Col: 0, Op: expr.Gt, Operand: table.I64(math.MaxInt64)},
		{Col: 0, Op: expr.Lt, Operand: table.I64(math.MinInt64)},
	} {
		res, err := st.execute(engine.Query{Projection: []int{0}, Selection: expr.Conjunction{p}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Morsels != 0 || res.RowsScanned != 0 {
			t.Errorf("id %s %d touched %d shards and scanned %d rows, want none",
				p.Op, p.Operand.Int, res.Morsels, res.RowsScanned)
		}
	}
}

func TestShardedAggregation(t *testing.T) {
	st := newSharded(t, 1000)
	q := engine.Query{
		Aggregates: []engine.AggTerm{
			{Kind: expr.Count},
			{Kind: expr.Sum, Arg: expr.ColRef{Col: 2}},
			{Kind: expr.Min, Arg: expr.ColRef{Col: 2}},
			{Kind: expr.Max, Arg: expr.ColRef{Col: 2}},
		},
	}
	res, err := st.execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggs[0].Int != 1000 {
		t.Errorf("COUNT = %s", res.Aggs[0])
	}
	// Sum of 0..999 = 499500.
	if res.Aggs[1].Float != 499500 {
		t.Errorf("SUM = %s", res.Aggs[1])
	}
	if res.Aggs[2].Float != 0 || res.Aggs[3].Float != 999 {
		t.Errorf("MIN/MAX = %s/%s", res.Aggs[2], res.Aggs[3])
	}
}

func TestShardedGroupBy(t *testing.T) {
	st := newSharded(t, 1400)
	q := engine.Query{
		GroupBy:    []int{1},
		Aggregates: []engine.AggTerm{{Kind: expr.Count}},
	}
	res, err := st.execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 7 {
		t.Fatalf("groups = %d, want 7", len(res.Groups))
	}
	var total int64
	for _, g := range res.Groups {
		total += g.Count
		if g.Count != 200 {
			t.Errorf("group %s count = %d, want 200", g.Key[0], g.Count)
		}
	}
	if total != 1400 {
		t.Errorf("grouped counts sum to %d", total)
	}
}

// TestAvgMatchesUnsharded: AVG merges across shards weighted by each
// shard's contributing rows, so scalar AVG, grouped AVG, and AVG over a key
// range that prunes every shard all equal the single-table RM run.
func TestAvgMatchesUnsharded(t *testing.T) {
	const rows = 1000
	st := newSharded(t, rows)
	ref, sys := unsharded(t, rows)
	avg := []engine.AggTerm{{Kind: expr.Avg, Arg: expr.ColRef{Col: 2}}, {Kind: expr.Count}}
	for name, q := range map[string]engine.Query{
		"scalar":  {Aggregates: avg, Selection: expr.Conjunction{{Col: 0, Op: expr.Ge, Operand: table.I64(100)}}},
		"grouped": {GroupBy: []int{1, 3}, Aggregates: avg},
		"pruned": {Aggregates: avg, Selection: expr.Conjunction{
			{Col: 0, Op: expr.Gt, Operand: table.I64(500)},
			{Col: 0, Op: expr.Lt, Operand: table.I64(400)},
		}},
	} {
		got, err := st.execute(q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sys.ResetState()
		want, err := (&engine.RMEngine{Tbl: ref, Sys: sys, PushSelection: true}).Execute(q)
		if err != nil {
			t.Fatalf("%s ref: %v", name, err)
		}
		if err := got.EquivalentTo(want, 1e-9); err != nil {
			t.Errorf("%s AVG: sharded vs unsharded: %v", name, err)
		}
	}
}

// TestGroupKeysWithNULBytes: group keys merge across shards by their typed
// encoding, so CHAR keys whose bytes contain NUL stay distinct groups even
// when their concatenations coincide.
func TestGroupKeysWithNULBytes(t *testing.T) {
	sch := geometry.MustSchema(
		geometry.Column{Name: "id", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "a", Type: geometry.Char, Width: 3},
		geometry.Column{Name: "b", Type: geometry.Char, Width: 3},
	)
	rows := [][]table.Value{
		{table.I64(1), table.Str("a\x00b"), table.Str("c")},
		{table.I64(2), table.Str("a"), table.Str("b\x00c")},
	}
	st, err := New("t", sch, 0, []int64{2}, len(rows), engine.DefaultSystemConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys := engine.MustSystem(engine.DefaultSystemConfig())
	ref := table.MustNew("ref", sch,
		table.WithCapacity(len(rows)), table.WithBaseAddr(sys.Arena.Alloc(int64(len(rows)*sch.RowBytes()))))
	for _, r := range rows {
		if err := st.Insert(r...); err != nil {
			t.Fatal(err)
		}
		ref.MustAppend(1, r...)
	}
	if got := st.ShardRows(); got[0] != 1 || got[1] != 1 {
		t.Fatalf("rows not split across both shards: %v", got)
	}
	q := engine.Query{GroupBy: []int{1, 2}, Aggregates: []engine.AggTerm{{Kind: expr.Count}}}
	got, err := st.execute(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := (&engine.RMEngine{Tbl: ref, Sys: sys, PushSelection: true}).Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.EquivalentTo(want, 0); err != nil {
		t.Errorf("sharded GROUP BY over NUL-bearing CHAR keys diverges from unsharded: %v", err)
	}
}

func TestNewValidation(t *testing.T) {
	cfg := engine.DefaultSystemConfig()
	if _, err := New("t", nil, 0, nil, 10, cfg); err == nil {
		t.Error("nil schema accepted")
	}
	if _, err := New("t", testSchema(), 3, nil, 10, cfg); err == nil {
		t.Error("CHAR key accepted")
	}
	if _, err := New("t", testSchema(), 0, []int64{5, 5}, 10, cfg); err == nil {
		t.Error("non-ascending bounds accepted")
	}
	if _, err := New("t", testSchema(), 0, nil, 0, cfg); err == nil {
		t.Error("zero capacity accepted")
	}
	st, err := New("t", testSchema(), 0, nil, 10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumShards() != 1 {
		t.Errorf("no bounds should mean one shard, got %d", st.NumShards())
	}
	if err := st.Insert(table.I64(1)); err == nil {
		t.Error("short row accepted")
	}
}

// TestShardedEqualsUnshardedProperty: for random queries (projection,
// selection, plain aggregation), scatter/gather over shards produces
// exactly the single-table result.
func TestShardedEqualsUnshardedProperty(t *testing.T) {
	const rows = 600
	st := newSharded(t, rows)
	ref, sys := unsharded(t, rows)

	qrng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		var q engine.Query
		if qrng.Intn(2) == 0 {
			q.Projection = []int{qrng.Intn(3)}
		} else {
			q.Aggregates = []engine.AggTerm{
				{Kind: expr.Count},
				{Kind: expr.Sum, Arg: expr.ColRef{Col: 2}},
			}
		}
		for p := 0; p < qrng.Intn(3); p++ {
			col := qrng.Intn(3)
			var operand table.Value
			switch col {
			case 0:
				operand = table.I64(int64(qrng.Intn(1000)))
			case 1:
				operand = table.I32(int32(qrng.Intn(7)))
			default:
				operand = table.F64(float64(qrng.Intn(600)))
			}
			q.Selection = append(q.Selection, expr.Predicate{
				Col: col, Op: expr.CmpOp(qrng.Intn(6)), Operand: operand,
			})
		}
		got, err := st.execute(q)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sys.ResetState()
		want, err := (&engine.RMEngine{Tbl: ref, Sys: sys, PushSelection: true}).Execute(q)
		if err != nil {
			t.Fatalf("trial %d ref: %v", trial, err)
		}
		if got.RowsPassed != want.RowsPassed || got.Checksum != want.Checksum {
			t.Fatalf("trial %d (%+v): sharded %d/%#x vs single %d/%#x",
				trial, q, got.RowsPassed, got.Checksum, want.RowsPassed, want.Checksum)
		}
		if len(q.Aggregates) > 0 {
			for i := range q.Aggregates {
				if !got.Aggs[i].Equal(want.Aggs[i]) {
					// SUM over shards adds in a different order; allow tiny drift.
					if got.Aggs[i].Type == want.Aggs[i].Type && got.Aggs[i].Type == geometry.Float64 {
						d := got.Aggs[i].Float - want.Aggs[i].Float
						if d < 1e-6 && d > -1e-6 {
							continue
						}
					}
					t.Fatalf("trial %d agg %d: %s vs %s", trial, i, got.Aggs[i], want.Aggs[i])
				}
			}
		}
	}
}

// TestMinMaxSkipEmptyShards: a shard that is touched but passes zero rows
// reports MIN/MAX as F64(0) (the engines' zero-row convention); the merge
// must skip those partials or a spurious 0 beats all-positive minima and
// all-negative maxima.
func TestMinMaxSkipEmptyShards(t *testing.T) {
	st, err := New("t", testSchema(), 0, []int64{250, 500, 750}, 100, engine.DefaultSystemConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Shard 0: amounts 40..49 — none qualify below.
	for i := 0; i < 10; i++ {
		if err := st.Insert(table.I64(int64(i)), table.I32(0), table.F64(float64(40+i)), table.Str("a")); err != nil {
			t.Fatal(err)
		}
	}
	// Shard 2: amounts 500..509 — all qualify.
	for i := 0; i < 10; i++ {
		if err := st.Insert(table.I64(int64(500+i)), table.I32(0), table.F64(float64(500+i)), table.Str("b")); err != nil {
			t.Fatal(err)
		}
	}

	q := engine.Query{
		Selection: expr.Conjunction{{Col: 2, Op: expr.Ge, Operand: table.F64(100)}},
		Aggregates: []engine.AggTerm{
			{Kind: expr.Min, Arg: expr.ColRef{Col: 2}},
			{Kind: expr.Max, Arg: expr.ColRef{Col: 2}},
		},
	}
	res, err := st.execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Morsels != 4 {
		t.Fatalf("touched %d shards, want all 4 (no key predicate)", res.Morsels)
	}
	if res.Aggs[0].Float != 500 {
		t.Errorf("MIN = %s, want 500 (zero-row shard must not contribute 0)", res.Aggs[0])
	}
	if res.Aggs[1].Float != 509 {
		t.Errorf("MAX = %s, want 509", res.Aggs[1])
	}

	// The mirror case: all qualifying values negative, MAX must not be 0.
	st2, err := New("t2", testSchema(), 0, []int64{250}, 100, engine.DefaultSystemConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := st2.Insert(table.I64(int64(i)), table.I32(0), table.F64(float64(-50+i)), table.Str("a")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := st2.Insert(table.I64(int64(300+i)), table.I32(0), table.F64(float64(100+i)), table.Str("b")); err != nil {
			t.Fatal(err)
		}
	}
	q2 := engine.Query{
		Selection:  expr.Conjunction{{Col: 2, Op: expr.Lt, Operand: table.F64(0)}},
		Aggregates: []engine.AggTerm{{Kind: expr.Max, Arg: expr.ColRef{Col: 2}}},
	}
	res2, err := st2.execute(q2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Aggs[0].Float != -41 {
		t.Errorf("MAX over negatives = %s, want -41", res2.Aggs[0])
	}
}

// TestAggregatesOnFullyPrunedRange: a key range that prunes every shard must
// return the same aggregate values as a single-node run whose selection
// passes zero rows — COUNT=0 and SUM/MIN/MAX=0.0, not nil.
func TestAggregatesOnFullyPrunedRange(t *testing.T) {
	st := newSharded(t, 200)
	q := engine.Query{
		Selection: expr.Conjunction{
			{Col: 0, Op: expr.Gt, Operand: table.I64(500)},
			{Col: 0, Op: expr.Lt, Operand: table.I64(400)},
		},
		Aggregates: []engine.AggTerm{
			{Kind: expr.Count},
			{Kind: expr.Sum, Arg: expr.ColRef{Col: 2}},
			{Kind: expr.Min, Arg: expr.ColRef{Col: 2}},
			{Kind: expr.Max, Arg: expr.ColRef{Col: 2}},
		},
	}
	res, err := st.execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Morsels != 0 {
		t.Fatalf("contradictory range touched %d shards", res.Morsels)
	}

	ref, sys := unsharded(t, 200)
	want, err := (&engine.RMEngine{Tbl: ref, Sys: sys, PushSelection: true}).Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Aggs) != len(want.Aggs) {
		t.Fatalf("aggregate count %d vs single-node %d", len(res.Aggs), len(want.Aggs))
	}
	for i := range want.Aggs {
		if !res.Aggs[i].Equal(want.Aggs[i]) {
			t.Errorf("aggregate %d: sharded %s vs single-node %s", i, res.Aggs[i], want.Aggs[i])
		}
	}
}

// TestWorkerCountEquivalence: scatter/gather results are identical for
// every pool size, and the modeled makespan never grows with more workers.
func TestWorkerCountEquivalence(t *testing.T) {
	st := newSharded(t, 1600)
	queries := []engine.Query{
		{Projection: []int{0, 2}},
		{Aggregates: []engine.AggTerm{
			{Kind: expr.Count},
			{Kind: expr.Sum, Arg: expr.ColRef{Col: 2}},
			{Kind: expr.Min, Arg: expr.ColRef{Col: 2}},
			{Kind: expr.Max, Arg: expr.ColRef{Col: 2}},
		}},
		{GroupBy: []int{1}, Aggregates: []engine.AggTerm{{Kind: expr.Count}}},
	}
	for qi, q := range queries {
		var base *engine.Result
		var prevCycles uint64
		for _, workers := range []int{1, 2, 4, 8} {
			st.Workers = workers
			res, err := st.execute(q)
			if err != nil {
				t.Fatalf("query %d workers %d: %v", qi, workers, err)
			}
			if base == nil {
				base, prevCycles = res, res.Breakdown.TotalCycles
				continue
			}
			if err := res.EquivalentTo(base, 0); err != nil {
				t.Fatalf("query %d: workers=%d changed the result: %v", qi, workers, err)
			}
			a, b := base.Breakdown, res.Breakdown
			a.TotalCycles, b.TotalCycles = 0, 0
			if a != b {
				t.Fatalf("query %d: workers=%d changed the breakdown:\n  %+v\nvs %+v",
					qi, workers, base.Breakdown, res.Breakdown)
			}
			if res.Breakdown.TotalCycles > prevCycles {
				t.Fatalf("query %d: modeled cycles grew from %d to %d at workers=%d",
					qi, prevCycles, res.Breakdown.TotalCycles, workers)
			}
			prevCycles = res.Breakdown.TotalCycles
		}
		st.Workers = 0
	}
}

// TestExecuteSQL: the exported entry compiles SQL text to the same query
// the unexported one runs, and rejects what the coordinator cannot merge.
func TestExecuteSQL(t *testing.T) {
	st := newSharded(t, 2000)
	got, err := st.Execute("SELECT grp, COUNT(*), SUM(amount) FROM t WHERE id >= 300 AND id < 400 GROUP BY grp")
	if err != nil {
		t.Fatal(err)
	}
	want, err := st.execute(engine.Query{
		GroupBy:    []int{1},
		Aggregates: []engine.AggTerm{{Kind: expr.Count}, {Kind: expr.Sum, Arg: expr.ColRef{Col: 2}}},
		Selection: expr.Conjunction{
			{Col: 0, Op: expr.Ge, Operand: table.I64(300)},
			{Col: 0, Op: expr.Lt, Operand: table.I64(400)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := got.EquivalentTo(want, 0); err != nil {
		t.Errorf("SQL entry diverges from the query entry: %v", err)
	}
	if got.Morsels != 1 {
		t.Errorf("key range [300,400) touched %d shards, want 1", got.Morsels)
	}
	for _, c := range []struct{ query, wantErr string }{
		{"SELECT id FROM t JOIN u ON id = uid", "JOIN"},
		{"SELECT id FROM other", `"other"`},
		{"SELECT nope FROM t", "unknown column"},
		{"SELECT id FROM", "expected table name"},
	} {
		if _, err := st.Execute(c.query); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("Execute(%q) error = %v, want substring %q", c.query, err, c.wantErr)
		}
	}
}

// TestShardedSinksBoxOnlyReturnedRows: the merge finishes the statement's
// ORDER BY / LIMIT on the merged group table, so before ApplySinks a
// sharded result holds at most LIMIT of its 1,000 groups, ordered by the
// sort key; Execute then only adds the sort charge.
func TestShardedSinksBoxOnlyReturnedRows(t *testing.T) {
	st := newSharded(t, 2000)
	q := engine.Query{
		GroupBy:    []int{0},
		Aggregates: []engine.AggTerm{{Kind: expr.Count}, {Kind: expr.Sum, Arg: expr.ColRef{Col: 2}}},
		Sinks:      engine.Sinks{Keys: []plan.SortKey{{Key: -1, Agg: 1, Desc: true}}, Limit: 10, HasLimit: true},
	}
	res, err := st.execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Morsels != 4 || len(res.Groups) != 10 {
		t.Fatalf("%d shards, %d groups; want 4 shards and the LIMIT's 10 groups", res.Morsels, len(res.Groups))
	}
	for i := 1; i < len(res.Groups); i++ {
		if res.Groups[i-1].Aggs[1].Float < res.Groups[i].Aggs[1].Float {
			t.Fatalf("groups %d and %d out of SUM DESC order: %v, %v", i-1, i, res.Groups[i-1].Aggs[1], res.Groups[i].Aggs[1])
		}
	}
	before := res.Breakdown.TotalCycles
	got, err := st.Execute("SELECT id, COUNT(*), SUM(amount) FROM t GROUP BY id ORDER BY 3 DESC LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	if err := got.EquivalentTo(res, 0); err != nil {
		t.Errorf("SQL entry diverges from the query entry: %v", err)
	}
	if sort := engine.ApplySinks(res, q.Sinks); got.Breakdown.TotalCycles != before+sort || sort == 0 {
		t.Errorf("Execute's total %d, want the merge's %d plus the sort charge %d", got.Breakdown.TotalCycles, before, sort)
	}
}
