package rfabric

import (
	"bytes"
	"fmt"
	"math"
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

// TestPipelineSinksMatchApplySinks holds the batch pipeline's ORDER BY /
// LIMIT finisher to what it replaced: on every path, each statement's rows,
// their order and their Breakdown, and the traced sink span's cycles,
// equal a run of the same engine without pushed sinks followed by
// ApplySinks over the full group list. Two databases run the statements in
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

// unpushedSinks runs text on kind with no sinks handed to the engine, then
// ApplySinks over the full group list, returning its sort charge.
func unpushedSinks(db *DB, kind EngineKind, text string) (*Result, uint64, error) {
	s, err := db.compile(text, nil)
	if err != nil {
		return nil, 0, err
	}
	var res *Result
	if s.jp != nil {
		res, err = db.executeJoin(kind, s.t, s.jp, engine.Sinks{}, nil)
	} else {
		res, err = db.execute(kind, s.t, s.q, engine.Sinks{}, nil, nil)
	}
	if err != nil {
		return nil, 0, err
	}
	return res, engine.ApplySinks(res, s.sk), nil
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
