package rfabric

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"testing"

	"rfabric/internal/engine"
	"rfabric/internal/tpch"
)

// sinkDB is a TPC-H database plus g, a table whose grouped output stresses
// the canonical group order and the ORDER BY / LIMIT sinks: DOUBLE keys with
// -0, +0 and two NaN payloads, CHAR keys with trailing and embedded NULs
// (a trailing NUL is padding, so "ab\x00" is the group "ab"), group counts
// that tie, and a column w whose sums are NaN in a few groups. g is indexed
// on id, which every g statement constrains so IDX runs them.
func sinkDB(t *testing.T) *DB {
	t.Helper()
	db := tpchDB(t, 1500)
	sch, err := NewSchema(
		Column{Name: "id", Type: Int64, Width: 8},
		Column{Name: "k", Type: Int32, Width: 4},
		Column{Name: "d", Type: Float64, Width: 8},
		Column{Name: "c", Type: Char, Width: 4},
		Column{Name: "v", Type: Float64, Width: 8},
		Column{Name: "w", Type: Float64, Width: 8},
	)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 700
	if _, err := db.CreateTable("g", sch, rows); err != nil {
		t.Fatal(err)
	}
	ds := []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000002), 1.5, -2.25, 3}
	cs := []string{"ab", "ab\x00", "a\x00b", "", "zz", "\x00a"}
	for i := 0; i < rows; i++ {
		v := float64((i*13)%29) * 0.5
		w := v
		if i%97 == 0 {
			w = math.NaN()
		}
		if err := db.Insert("g", I64(int64(i)), I32(int32((i*7)%53)), F64(ds[i%len(ds)]),
			Str(cs[i%len(cs)]), F64(v), F64(w)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.CreateIndex("g", "id"); err != nil {
		t.Fatal(err)
	}
	return db
}

// sinkStatements cover ORDER BY a key and an aggregate, ASC and DESC; LIMIT
// 0, 1, k, the group count and past it; no LIMIT; LIMIT alone; sort-key ties
// only the canonical order breaks; NaN sort keys; -0/+0 and NaN group keys;
// CHAR keys with NULs; and Q3-style joins.
var sinkStatements = []string{
	"SELECT k, COUNT(*), SUM(v) FROM g WHERE id >= 0 GROUP BY k ORDER BY k LIMIT 5",
	"SELECT k, COUNT(*), SUM(v) FROM g WHERE id >= 0 GROUP BY k ORDER BY k DESC LIMIT 1",
	"SELECT k, SUM(v) FROM g WHERE id >= 0 GROUP BY k ORDER BY 2 DESC LIMIT 7",
	"SELECT k, SUM(v) FROM g WHERE id >= 0 GROUP BY k ORDER BY 2 LIMIT 0",
	"SELECT k, SUM(v) FROM g WHERE id >= 0 GROUP BY k ORDER BY 2 ASC LIMIT 53",
	"SELECT k, SUM(v) FROM g WHERE id >= 0 GROUP BY k ORDER BY 2 DESC LIMIT 500",
	"SELECT k, SUM(v) FROM g WHERE id >= 0 GROUP BY k ORDER BY 2 DESC",
	"SELECT k, COUNT(*) FROM g WHERE id >= 0 GROUP BY k ORDER BY 2 DESC LIMIT 6",
	"SELECT d, COUNT(*) FROM g WHERE id >= 0 GROUP BY d ORDER BY 2 LIMIT 3",
	"SELECT d, k, COUNT(*) FROM g WHERE id >= 0 GROUP BY d, k ORDER BY 3 DESC, k LIMIT 10",
	"SELECT d, COUNT(*) FROM g WHERE id >= 0 GROUP BY d ORDER BY d DESC LIMIT 4",
	"SELECT d, COUNT(*) FROM g WHERE id >= 0 GROUP BY d ORDER BY d",
	"SELECT k, SUM(w) FROM g WHERE id >= 0 GROUP BY k ORDER BY 2 DESC LIMIT 5",
	"SELECT k, SUM(w) FROM g WHERE id >= 0 GROUP BY k ORDER BY 2 LIMIT 60",
	"SELECT c, COUNT(*), SUM(v) FROM g WHERE id >= 0 GROUP BY c ORDER BY c DESC LIMIT 3",
	"SELECT c, d, COUNT(*) FROM g WHERE id >= 0 GROUP BY c, d ORDER BY 3 LIMIT 8",
	"SELECT c, d, COUNT(*) FROM g WHERE id >= 0 GROUP BY c, d LIMIT 4",
	tpch.Q3SQL + " ORDER BY 2 DESC, o_orderdate LIMIT 10",
	tpch.Q3SQL + " ORDER BY o_orderdate LIMIT 0",
	"SELECT o_orderdate, COUNT(*) FROM lineitem JOIN orders ON l_orderkey = o_orderkey GROUP BY o_orderdate ORDER BY 2 DESC LIMIT 5",
}

// TestPipelineSinksMatchApplySinks holds every path's ORDER BY / LIMIT
// finisher to a reference: on every path, each statement's rows, their
// order and their Breakdown, and the traced sink span's cycles, equal a run
// of the same engine without sinks followed by a stable sort of the full
// group list and the cut (stableSinks). Two databases run the statements in
// lockstep, so each run starts from the same simulated machine state. The
// single-table statements sum exact values, so every path must also return
// ROW's rows bit for bit — PAR among them, whose merge finishes the
// partitions' merged group table, and, with the offload layer on, RM's
// fabric fold and PAR's Bloom-filtered joins.
func TestPipelineSinksMatchApplySinks(t *testing.T) {
	got, ref := sinkDB(t), sinkDB(t)
	rowGroups := map[string][]engine.GroupRow{}
	for _, path := range []string{"ROW", "COL", "RM", "IDX", "AUTO", "PAR", "RM+offload", "PAR+offload"} {
		kind, offload := EngineKind(strings.TrimSuffix(path, "+offload")), strings.HasSuffix(path, "+offload")
		got.SetOffload(offload)
		ref.SetOffload(offload)
		for _, text := range sinkStatements {
			res, tr, err := got.QueryTraced(text, OnEngine(kind))
			if err != nil {
				t.Fatalf("%s %q: %v", path, text, err)
			}
			want, cycles, err := unpushedSinks(ref, kind, text)
			if err != nil {
				t.Fatalf("%s %q reference: %v", path, text, err)
			}
			if path == "RM+offload" && !strings.Contains(text, "JOIN") && res.Offload != "group-agg" {
				t.Errorf("%s %q ran offload %q, want group-agg", path, text, res.Offload)
			}
			if err := sameResult(res, want); err != nil {
				t.Errorf("%s %q: %v", path, text, err)
			}
			if !strings.Contains(text, "JOIN") {
				if kind == ROW {
					rowGroups[text] = res.Groups
				} else if err := sameGroups(res.Groups, rowGroups[text]); err != nil {
					t.Errorf("%s %q differs from ROW: %v", path, text, err)
				}
			}
			if sp := tr.Root.Find("sink"); sp == nil || sp.Cycles != cycles {
				t.Errorf("%s %q: sink span %+v, want %d cycles", path, text, sp, cycles)
			}
		}
	}
}

// unpushedSinks runs text on kind with the sinks cleared from its query,
// then the reference sinks (stableSinks) over the full group list,
// returning their sort charge.
func unpushedSinks(db *DB, kind EngineKind, text string) (*Result, uint64, error) {
	s, err := db.compile(text, nil)
	if err != nil {
		return nil, 0, err
	}
	var res *Result
	if s.jp != nil {
		s.jp.Consume.Sinks = engine.Sinks{}
		res, err = db.executeJoin(kind, s.t, s.jp, nil)
	} else {
		s.q.Sinks = engine.Sinks{}
		res, err = db.execute(kind, s.t, s.q, nil)
	}
	if err != nil {
		return nil, 0, err
	}
	return res, stableSinks(res, s.sk), nil
}

// stableSinks is the reference for a statement's sinks over a result run
// without them: the groups in the canonical order of their boxed keys
// (refKeyCmp), whatever order they came in, then a stable sort by the sort
// keys' boxed values (Value.Compare, negated for DESC), the cut at the
// limit, and the n·⌈log₂n⌉·SortCmpCycles charge over the n groups before
// the cut, added to the breakdown and returned.
func stableSinks(res *Result, sk engine.Sinks) uint64 {
	rows := res.Groups
	slices.SortFunc(rows, func(a, b engine.GroupRow) int { return refKeyCmp(a.Key, b.Key) })
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
	cycles := uint64(n) * uint64(bits.Len(uint(n-1))) * engine.SortCmpCycles
	res.Breakdown.ComputeCycles += cycles
	res.Breakdown.TotalCycles += cycles
	return cycles
}

// refKeyCmp is the canonical group order's rule stated on boxed key values
// (internal/vec's TestGroupKeyOrderMatchesReference holds the group-key
// format to the same rule): key columns in turn, DOUBLE by cmp.Compare (NaN
// first, -0 == +0), integers by value, CHAR by pad-trimmed bytes; keys
// equal on every column by those rules are ordered by their DOUBLEs' raw
// bits, little-endian, column by column.
func refKeyCmp(a, b []Value) int {
	for k := range a {
		var r int
		switch a[k].Type {
		case Float64:
			r = cmp.Compare(a[k].Float, b[k].Float)
		case Char:
			r = bytes.Compare(bytes.TrimRight(a[k].Bytes, "\x00"), bytes.TrimRight(b[k].Bytes, "\x00"))
		default:
			r = cmp.Compare(a[k].Int, b[k].Int)
		}
		if r != 0 {
			return r
		}
	}
	for k := range a {
		if a[k].Type == Float64 {
			x := binary.LittleEndian.AppendUint64(nil, math.Float64bits(a[k].Float))
			y := binary.LittleEndian.AppendUint64(nil, math.Float64bits(b[k].Float))
			if r := bytes.Compare(x, y); r != 0 {
				return r
			}
		}
	}
	return 0
}

// TestSinkStatementsPlanOfRoundTrip: for every single-table statement of
// sinkStatements, the plan chain a traced run renders and stamps — PlanOf
// over the compiled query, sinks included — is the lowered plan.
func TestSinkStatementsPlanOfRoundTrip(t *testing.T) {
	db := sinkDB(t)
	for _, text := range sinkStatements {
		s, err := db.compile(text, nil)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		if s.jp != nil {
			continue
		}
		sch := s.t.tbl.Schema()
		if got, want := s.tree().Explain(sch), s.root.Explain(sch); got != want {
			t.Errorf("%q: PlanOf(FromPlan) renders\n%s\nwant\n%s", text, got, want)
		}
	}
}

// TestPartitionedSinksBoxOnlyReturnedRows: PAR's merge finishes the
// statement's sinks on the merged group table, so a PAR scan and a PAR
// join hold at most LIMIT groups before ApplySinks runs, where the same
// statements without LIMIT return more groups than that.
func TestPartitionedSinksBoxOnlyReturnedRows(t *testing.T) {
	db := tpchDB(t, 24000)
	for _, c := range []struct {
		text  string
		limit int
	}{
		{"SELECT l_suppkey, SUM(l_extendedprice), COUNT(*) FROM lineitem GROUP BY l_suppkey ORDER BY 2 DESC LIMIT 10", 10},
		{tpch.Q3SQL + " ORDER BY 2 DESC LIMIT 5", 5},
	} {
		s, err := db.compile(c.text, nil)
		if err != nil {
			t.Fatalf("%q: %v", c.text, err)
		}
		run := func() *Result {
			var res *Result
			if s.jp != nil {
				res, err = db.executeJoin(PAR, s.t, s.jp, nil)
			} else {
				res, err = db.execute(PAR, s.t, s.q, nil)
			}
			if err != nil {
				t.Fatalf("PAR %q: %v", c.text, err)
			}
			return res
		}
		res := run()
		if res.Morsels < 2 {
			t.Fatalf("PAR %q ran %d morsels; the merge needs several", c.text, res.Morsels)
		}
		if len(res.Groups) > c.limit {
			t.Errorf("PAR %q boxed %d groups under LIMIT %d", c.text, len(res.Groups), c.limit)
		}
		if s.jp != nil {
			s.jp.Consume.Sinks.HasLimit = false
		} else {
			s.q.Sinks.HasLimit = false
		}
		if all := run(); len(all.Groups) <= c.limit {
			t.Fatalf("PAR %q without LIMIT returned %d groups; the check needs more than %d", c.text, len(all.Groups), c.limit)
		}
	}
}

// sameResult compares two results field by field, values bit for bit (so
// NaN equals an identical NaN, and -0 differs from +0).
func sameResult(a, b *Result) error {
	switch {
	case a.Engine != b.Engine || a.RowsScanned != b.RowsScanned || a.RowsPassed != b.RowsPassed || a.Checksum != b.Checksum:
		return fmt.Errorf("run %s %d/%d %#x, want %s %d/%d %#x", a.Engine, a.RowsScanned, a.RowsPassed, a.Checksum,
			b.Engine, b.RowsScanned, b.RowsPassed, b.Checksum)
	case a.Breakdown != b.Breakdown:
		return fmt.Errorf("breakdown %+v, want %+v", a.Breakdown, b.Breakdown)
	case !sameValues(a.Aggs, b.Aggs):
		return fmt.Errorf("aggregates %v, want %v", a.Aggs, b.Aggs)
	}
	return sameGroups(a.Groups, b.Groups)
}

// sameGroups compares grouped rows in order, values bit for bit.
func sameGroups(a, b []engine.GroupRow) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d groups, want %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Count != y.Count || !sameValues(x.Key, y.Key) || !sameValues(x.Aggs, y.Aggs) {
			return fmt.Errorf("row %d: %v %v %d, want %v %v %d", i, x.Key, x.Aggs, x.Count, y.Key, y.Aggs, y.Count)
		}
	}
	return nil
}

func sameValues(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Type != y.Type || x.Int != y.Int || math.Float64bits(x.Float) != math.Float64bits(y.Float) ||
			!bytes.Equal(x.Bytes, y.Bytes) {
			return false
		}
	}
	return true
}

// TestShardedSinksMatchROW: a sharded table's merge finishes ORDER BY /
// LIMIT, so four shards over lineitem return the same groups, in the same
// order and bit for bit, as a ROW façade database over the same rows: a
// top-10, LIMIT 0, and an ORDER BY without LIMIT. SUM(l_quantity) sums
// whole numbers, so the merged sums are exact and ties are real.
func TestShardedSinksMatchROW(t *testing.T) {
	const rows = 8000
	db := tpchDB(t, rows)
	li, err := db.lookup("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	tbl := li.tbl
	sch := tbl.Schema()
	var maxKey int64
	for r := 0; r < tbl.NumRows(); r++ {
		v, err := tbl.Get(r, 0)
		if err != nil {
			t.Fatal(err)
		}
		maxKey = max(maxKey, v.Int)
	}
	q := maxKey / 4
	st, err := NewShardedTable("lineitem", sch, 0, []int64{q, 2 * q, 3 * q}, rows, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]Value, sch.NumColumns())
	for r := 0; r < tbl.NumRows(); r++ {
		for c := range vals {
			if vals[c], err = tbl.Get(r, c); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Insert(vals...); err != nil {
			t.Fatal(err)
		}
	}
	const grouped = "SELECT l_suppkey, SUM(l_quantity), COUNT(*) FROM lineitem GROUP BY l_suppkey ORDER BY 2 DESC"
	for _, c := range []struct {
		text string
		rows int // -1: every group
	}{{grouped + " LIMIT 10", 10}, {grouped + " LIMIT 0", 0}, {grouped, -1}} {
		want, err := db.QueryOn(ROW, c.text)
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.Execute(c.text)
		if err != nil {
			t.Fatalf("sharded %q: %v", c.text, err)
		}
		if got.Morsels != 4 {
			t.Errorf("sharded %q touched %d shards, want 4", c.text, got.Morsels)
		}
		if c.rows >= 0 && len(got.Groups) != c.rows || c.rows < 0 && len(got.Groups) <= 10 {
			t.Errorf("sharded %q returned %d groups", c.text, len(got.Groups))
		}
		if err := sameGroups(got.Groups, want.Groups); err != nil {
			t.Errorf("sharded %q differs from ROW: %v", c.text, err)
		}
	}
}
