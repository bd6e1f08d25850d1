package rfabric

import (
	"strings"
	"testing"

	"rfabric/internal/geometry"
)

// fuzzSeeds are statements from the repository's SQL tests, over the
// catalog fuzzDB builds: the TPC-H tables, the indexed demo table items, the
// front end's test table t, and the MVCC table acct with three committed
// versions (AS OF 1..3).
var fuzzSeeds = []string{
	"SELECT id, price FROM items WHERE grp < 3 AND tag = 'red'",
	"SELECT COUNT(*), SUM(price), AVG(price), MIN(price), MAX(price) FROM items WHERE grp = 0",
	"SELECT id FROM items WHERE id = 77",
	"SELECT id, price FROM items WHERE id >= 100 AND id < 140",
	"SELECT grp, COUNT(*), SUM(price), MIN(day) FROM items WHERE day >= DATE '1992-01-16' GROUP BY grp",
	"SELECT COUNT(price), AVG(price) FROM items WHERE id < 700",
	"SELECT grp, COUNT(*) FROM items GROUP BY grp ORDER BY 2 DESC LIMIT 3",
	"SELECT COUNT(*) FROM items",
	"SELECT id FROM items WHERE price = 'text'",
	"SELECT id, price FROM t WHERE qty < 5",
	"SELECT id FROM t WHERE id = 7 AND cnt < 3 AND flag = 'R' AND shipdate < DATE '1994-01-01'",
	"SELECT flag, COUNT(*), SUM(price * (1 - qty)), AVG(qty) FROM t GROUP BY flag",
	"SELECT flag, cnt, COUNT(*) FROM t GROUP BY flag, cnt",
	"SELECT flag, COUNT(*), SUM(qty) FROM t GROUP BY flag ORDER BY 3 DESC, flag LIMIT 5",
	"SELECT flag, SUM(qty) FROM t GROUP BY flag ORDER BY 2, flag ASC LIMIT 0",
	"SELECT MIN(price), MAX(price) FROM t WHERE cnt <> 3",
	"SELECT id FROM t WHERE qty BETWEEN 2 AND 7 AND id > 0",
	"SELECT id FROM t WHERE price > -2.5",
	"SELECT SUM(price + qty * 2) FROM t",
	"SELECT l_orderkey, l_quantity FROM lineitem WHERE l_quantity < 5",
	"SELECT SUM(l_extendedprice * l_discount) FROM lineitem WHERE l_quantity < 24",
	"SELECT AVG(l_discount) FROM lineitem WHERE l_tax < 0.04",
	"SELECT COUNT(*) FROM lineitem WHERE l_shipdate >= DATE '1994-01-01'",
	"SELECT l_returnflag, COUNT(*) FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag LIMIT 3",
	"SELECT COUNT(*) FROM lineitem JOIN orders ON l_orderkey = o_orderkey WHERE l_quantity < 30",
	"SELECT l_orderkey FROM lineitem JOIN orders ON l_orderkey = orders.o_orderkey",
	"SELECT c_name FROM customer WHERE c_mktsegment = 'BUILDING'",
	"SELECT id, price FROM acct AS OF 2",
	"SELECT COUNT(*), SUM(price) FROM acct AS OF 1 WHERE grp < 5",
	"SELECT grp, COUNT(*) FROM acct AS OF 3 GROUP BY grp",
	"SELECT id FROM acct WHERE id = 3",
	"SELECT id FROM items AS OF 1",
	"SELECT l_orderkey FROM lineitem AS OF 3 JOIN orders ON l_orderkey = o_orderkey",
	"SELECT a FROM t GROUP BY",
	"SELECT id FROM t AS OF 1.5",
	"SELECT grp, COUNT(*) FROM items GROUP BY grp ORDER BY 2 LIMIT 4",
	"SELECT cnt, flag, COUNT(*) FROM t GROUP BY cnt, flag ORDER BY 3 DESC LIMIT 4",
	"SELECT flag, cnt, SUM(qty) FROM t GROUP BY flag, cnt ORDER BY 3, flag DESC LIMIT 6",
	"SELECT COUNT(0) FROM lineitem",
	"SELECT SUM(1) FROM lineitem",
	"SELECT COUNT(0) FROM items",
	nanSortSeed,
}

// nanSortSeed orders groups by a sum that is NaN in some of them:
// price^25 * 3e282 stays finite for price <= 10.25 and overflows to +Inf
// from 11.25 on, where Inf - Inf is NaN. The finite groups come first in
// canonical (price) order, and a NaN compares equal to everything, so the
// stable sort leaves the NaN groups behind them and LIMIT 5 returns only
// finite rows.
var nanSortSeed = func() string {
	pow := strings.Repeat("price * ", 25) + "3" + strings.Repeat("0", 282)
	return "SELECT price, SUM(" + pow + " - " + pow + " + qty) FROM t GROUP BY price ORDER BY 2 DESC LIMIT 5"
}()

// fuzzDB builds the catalog FuzzQuery runs on: small TPC-H tables, items
// (demoDB's table, indexed on id), t (the SQL front end's test schema), and
// acct, an MVCC table whose three committed transactions insert, update and
// delete so each AS OF timestamp sees a different version set.
func fuzzDB(tb testing.TB) *DB {
	tb.Helper()
	db, err := NewTPCHDB(DefaultConfig(), 400, 1)
	if err != nil {
		tb.Fatal(err)
	}
	tags := []string{"red", "blue"}
	if _, err := db.CreateTable("items", demoSchema(tb), 300); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := db.Insert("items", I64(int64(i)), I32(int32(i%10)), F64(float64(i)*1.5),
			Str(tags[i%2]), DateV(int32(8000+i%100))); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := db.CreateIndex("items", "id"); err != nil {
		tb.Fatal(err)
	}

	tSchema := geometry.MustSchema(
		Column{Name: "id", Type: Int64, Width: 8},
		Column{Name: "qty", Type: Float64, Width: 8},
		Column{Name: "price", Type: Float64, Width: 8},
		Column{Name: "flag", Type: Char, Width: 1},
		Column{Name: "shipdate", Type: Date, Width: 4},
		Column{Name: "cnt", Type: Int32, Width: 4},
	)
	if _, err := db.CreateTable("t", tSchema, 200); err != nil {
		tb.Fatal(err)
	}
	flags := []string{"A", "N", "R"}
	for i := 0; i < 200; i++ {
		if err := db.Insert("t", I64(int64(i)), F64(float64(i%11)), F64(float64(i%37)+0.25),
			Str(flags[i%3]), DateV(int32(8700+i)), I32(int32(i%5))); err != nil {
			tb.Fatal(err)
		}
	}

	acct, err := db.CreateTable("acct", demoSchema(tb), 64, WithMVCC())
	if err != nil {
		tb.Fatal(err)
	}
	mgr, err := NewTxnManager(acct)
	if err != nil {
		tb.Fatal(err)
	}
	commit := func(fn func(*Txn) error) {
		txn := mgr.Begin()
		if err := fn(txn); err != nil {
			tb.Fatal(err)
		}
		if _, err := txn.Commit(); err != nil {
			tb.Fatal(err)
		}
	}
	row := func(i int) []Value {
		return []Value{I64(int64(i)), I32(int32(i % 4)), F64(float64(10 * i)), Str(tags[i%2]), DateV(int32(8000 + i))}
	}
	commit(func(txn *Txn) error {
		for i := 0; i < 12; i++ {
			if err := txn.Insert(row(i)...); err != nil {
				return err
			}
		}
		return nil
	})
	commit(func(txn *Txn) error {
		upd := row(3)
		upd[2] = F64(999)
		return txn.Update(3, upd...)
	})
	commit(func(txn *Txn) error { return txn.Delete(5) })
	return db
}

// documentedRefusal reports whether err is an access path's documented
// refusal of a statement ROW can run: IDX needs an index and a selection
// that constrains its column, and COL's copy keeps no version history.
func documentedRefusal(kind EngineKind, err error) bool {
	msg := err.Error()
	switch kind {
	case "IDX":
		return strings.Contains(msg, "no index on this table") ||
			strings.Contains(msg, "does not constrain indexed column")
	case COL:
		return strings.Contains(msg, "columnar copy does not support MVCC snapshots")
	}
	return false
}

// FuzzQuery drives SQL text through the whole façade on every access path.
// No input may panic. Where ROW runs the statement, every other path must
// return a result equivalent to ROW's (floats within 1e-9 relative) or one
// of its documented refusals.
func FuzzQuery(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	db := fuzzDB(f)
	f.Fuzz(func(t *testing.T, text string) {
		ref, refErr := db.QueryOn(ROW, text)
		for _, kind := range []EngineKind{COL, RM, "IDX", PAR, AUTO} {
			res, err := db.QueryOn(kind, text)
			switch {
			case refErr != nil:
				// Only the absence of a panic is checked.
			case err != nil:
				if !documentedRefusal(kind, err) {
					t.Errorf("%s fails %q, which ROW runs: %v", kind, text, err)
				}
			default:
				if err := res.EquivalentTo(ref, 1e-9); err != nil {
					t.Errorf("%s disagrees with ROW on %q: %v", kind, text, err)
				}
			}
		}
	})
}

// TestBareCountOnEveryPath pins the fabric's bare COUNT(*) and aggregates
// over constants: a statement that reads no column configures a column
// group on the table's narrowest column, so RM, PAR and AUTO count (and
// sum) what ROW does, with and without a snapshot that hides deleted and
// not yet committed versions.
func TestBareCountOnEveryPath(t *testing.T) {
	db := fuzzDB(t)
	stmts := []string{
		"SELECT COUNT(*) FROM items",
		"SELECT COUNT(*), COUNT(*) FROM lineitem",
		"SELECT COUNT(*) FROM acct AS OF 1",
		"SELECT COUNT(*) FROM acct AS OF 2",
		"SELECT COUNT(*) FROM acct AS OF 3",
		"SELECT COUNT(0) FROM lineitem",
		"SELECT SUM(1) FROM lineitem",
		"SELECT COUNT(0) FROM items",
	}
	for _, text := range stmts {
		ref, err := db.QueryOn(ROW, text)
		if err != nil {
			t.Fatalf("ROW %q: %v", text, err)
		}
		for _, kind := range []EngineKind{RM, PAR, AUTO} {
			res, err := db.QueryOn(kind, text)
			if err != nil {
				t.Fatalf("%s %q: %v", kind, text, err)
			}
			if err := res.EquivalentTo(ref, 0); err != nil {
				t.Errorf("%s disagrees with ROW on %q: %v", kind, text, err)
			}
		}
	}
}
