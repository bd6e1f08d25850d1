package rfabric

import (
	"fmt"
	"strings"
	"testing"
)

func demoSchema(t testing.TB) *Schema {
	t.Helper()
	s, err := NewSchema(
		Column{Name: "id", Type: Int64, Width: 8},
		Column{Name: "grp", Type: Int32, Width: 4},
		Column{Name: "price", Type: Float64, Width: 8},
		Column{Name: "tag", Type: Char, Width: 4},
		Column{Name: "day", Type: Date, Width: 4},
	)
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

func demoDB(t *testing.T, rows int) *DB {
	t.Helper()
	db, err := Open(DefaultConfig())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := db.CreateTable("items", demoSchema(t), rows+16); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	tags := []string{"red", "blue"}
	for i := 0; i < rows; i++ {
		err := db.Insert("items",
			I64(int64(i)),
			I32(int32(i%10)),
			F64(float64(i)*1.5),
			Str(tags[i%2]),
			DateV(int32(8000+i%1000)),
		)
		if err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	return db
}

func TestDBQueryAcrossEngines(t *testing.T) {
	db := demoDB(t, 2000)
	const q = "SELECT id, price FROM items WHERE grp < 3 AND tag = 'red'"
	var ref *Result
	for _, kind := range []EngineKind{ROW, COL, RM} {
		db.System().ResetState()
		res, err := db.QueryOn(kind, q)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if res.RowsPassed == 0 || res.RowsPassed == res.RowsScanned {
			t.Fatalf("%s: degenerate selectivity %d/%d", kind, res.RowsPassed, res.RowsScanned)
		}
		if ref == nil {
			ref = res
		} else if err := res.EquivalentTo(ref, 0); err != nil {
			t.Errorf("%s disagrees: %v", kind, err)
		}
	}
}

func TestDBAggregationQuery(t *testing.T) {
	db := demoDB(t, 500)
	res, err := db.Query("SELECT COUNT(*), SUM(price), AVG(price), MIN(price), MAX(price) FROM items WHERE grp = 0")
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggs[0].Int != 50 {
		t.Errorf("COUNT = %s, want 50", res.Aggs[0])
	}
	if res.Aggs[3].Float != 0 || res.Aggs[4].Float != 735 {
		t.Errorf("MIN/MAX = %s/%s", res.Aggs[3], res.Aggs[4])
	}
}

func TestDBGroupByQuery(t *testing.T) {
	db := demoDB(t, 300)
	res, err := db.Query("SELECT tag, COUNT(*) FROM items GROUP BY tag")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 2 {
		t.Fatalf("groups = %d", len(res.Groups))
	}
	// Sorted by key: blue before red.
	if res.Groups[0].Key[0].String() != "blue" || res.Groups[0].Count != 150 {
		t.Errorf("group 0 = %s/%d", res.Groups[0].Key[0], res.Groups[0].Count)
	}
}

// TestDBOrderByStableTiesAndLimitZero runs the sink operators end to end
// through the SQL front door. 4000 rows at branch=i%11 give branches 0–6 a
// count of 364 and branches 7–10 a count of 363, so a descending sort on
// COUNT has two tie classes; the stable sort must keep each class in its
// group-discovery (ascending branch) order.
func TestDBOrderByStableTiesAndLimitZero(t *testing.T) {
	db := itemsDB(t, 4000)
	res, err := db.Query("SELECT branch, COUNT(*) FROM items GROUP BY branch ORDER BY 2 DESC")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 11 {
		t.Fatalf("groups = %d", len(res.Groups))
	}
	for i, g := range res.Groups {
		wantBranch, wantCount := int64(i), int64(364)
		if i >= 7 {
			wantCount = 363
		}
		if g.Key[0].Int != wantBranch || g.Count != wantCount {
			t.Errorf("group %d = branch %d count %d, want branch %d count %d",
				i, g.Key[0].Int, g.Count, wantBranch, wantCount)
		}
	}

	lim, err := db.QueryOn(ROW, "SELECT branch, COUNT(*) FROM items GROUP BY branch ORDER BY 2 DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(lim.Groups) != 3 || lim.Groups[0].Key[0].Int != 0 {
		t.Errorf("LIMIT 3 groups = %+v", lim.Groups)
	}

	zero, err := db.Query("SELECT branch, COUNT(*) FROM items GROUP BY branch LIMIT 0")
	if err != nil {
		t.Fatal(err)
	}
	if len(zero.Groups) != 0 {
		t.Errorf("LIMIT 0 returned %d groups", len(zero.Groups))
	}
}

func TestDBCapacityEnforced(t *testing.T) {
	db, _ := Open(DefaultConfig())
	if _, err := db.CreateTable("tiny", demoSchema(t), 2); err != nil {
		t.Fatal(err)
	}
	row := []Value{I64(1), I32(1), F64(1), Str("x"), DateV(1)}
	for i := 0; i < 2; i++ {
		if err := db.Insert("tiny", row...); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Insert("tiny", row...); err == nil {
		t.Error("insert past reserved capacity accepted")
	}
}

func TestDBCatalog(t *testing.T) {
	db := demoDB(t, 1)
	if _, err := db.CreateTable("items", demoSchema(t), 1); err == nil {
		t.Error("duplicate table accepted")
	}
	if _, err := db.CreateTable("zero", demoSchema(t), 0); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := db.Table("missing"); err == nil {
		t.Error("unknown table lookup succeeded")
	}
	if _, err := db.Query("SELECT id FROM missing"); err == nil {
		t.Error("query against unknown table succeeded")
	}
	if _, err := db.QueryOn(EngineKind("JET"), "SELECT id FROM items"); err == nil {
		t.Error("unknown engine kind accepted")
	}
	names := db.TableNames()
	if len(names) != 1 || names[0] != "items" {
		t.Errorf("TableNames = %v", names)
	}
}

func TestDBColumnarCopyInvalidatedByInsert(t *testing.T) {
	db := demoDB(t, 100)
	q := "SELECT COUNT(*) FROM items"
	before, err := db.QueryOn(COL, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("items", I64(999), I32(1), F64(0), Str("x"), DateV(1)); err != nil {
		t.Fatal(err)
	}
	after, err := db.QueryOn(COL, q)
	if err != nil {
		t.Fatal(err)
	}
	if after.Aggs[0].Int != before.Aggs[0].Int+1 {
		t.Errorf("COL count %d after insert, want %d — stale columnar copy", after.Aggs[0].Int, before.Aggs[0].Int+1)
	}
}

func TestDBConfigureEphemeral(t *testing.T) {
	db := demoDB(t, 64)
	ev, err := db.Configure("items", []string{"id", "price"})
	if err != nil {
		t.Fatal(err)
	}
	packed := ev.Materialize()
	if len(packed) != 64*16 {
		t.Errorf("packed bytes = %d, want %d", len(packed), 64*16)
	}
	if _, err := db.Configure("items", []string{"nope"}); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := db.Configure("nope", []string{"id"}); err == nil {
		t.Error("unknown table accepted")
	}
}

func TestDBSQLErrorsSurface(t *testing.T) {
	db := demoDB(t, 1)
	for _, q := range []string{
		"SELEC id FROM items",
		"SELECT id FROM items WHERE price = 'text'",
		"SELECT nope FROM items",
	} {
		if _, err := db.Query(q); err == nil {
			t.Errorf("Query(%q) succeeded", q)
		}
	}
}

// TestQueryOnDatePredicate: a DATE literal in WHERE coerces to the column's
// day number on every path. demoDB's days run 8000..8099 for 100 rows, and
// 1992-01-16 is day 8050.
func TestQueryOnDatePredicate(t *testing.T) {
	db := demoDB(t, 100)
	for _, kind := range []EngineKind{RM, ROW, COL, PAR, AUTO} {
		res, err := db.QueryOn(kind, "SELECT id FROM items WHERE day >= DATE '1992-01-16'")
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if res.RowsPassed != 50 {
			t.Errorf("%s: date predicate passed %d rows, want 50", kind, res.RowsPassed)
		}
	}
}

func TestDateHelpers(t *testing.T) {
	day, err := ParseDate("1994-01-01")
	if err != nil || day != 8766 {
		t.Errorf("ParseDate = %d, %v", day, err)
	}
	if got := FormatDate(8766); got != "1994-01-01" {
		t.Errorf("FormatDate = %q", got)
	}
}

func TestPublicCompressionFacade(t *testing.T) {
	if got := len(Codecs()); got != 5 {
		t.Errorf("Codecs() = %d entries", got)
	}
	d, err := EncodeDict([]byte("aabb"), 2)
	if err != nil || d.Cardinality() != 2 {
		t.Errorf("EncodeDict: %v", err)
	}
	enc := EncodeLZ77([]byte(strings.Repeat("fabric", 20)))
	dec, err := DecodeLZ77(enc)
	if err != nil || string(dec) != strings.Repeat("fabric", 20) {
		t.Errorf("LZ77 round trip failed: %v", err)
	}
	delta := EncodeDelta([]int64{10, 11, 12})
	if v, _ := delta.At(2); v != 12 {
		t.Errorf("delta At(2) = %d", v)
	}
	h, err := EncodeHuffman([]byte("mississippi"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if all, _ := h.DecodeAll(); string(all) != "mississippi" {
		t.Error("huffman round trip failed")
	}
	r, err := EncodeRLE([]byte{1, 1, 2}, 1)
	if err != nil || r.Runs() != 2 {
		t.Errorf("EncodeRLE: %v", err)
	}
}

func TestPublicStorageFacade(t *testing.T) {
	db := demoDB(t, 200)
	tbl, _ := db.Table("items")
	dev, err := NewStorageDevice(DefaultStorageConfig())
	if err != nil {
		t.Fatal(err)
	}
	ps, err := StoreTable(dev, tbl, true)
	if err != nil {
		t.Fatal(err)
	}
	geom, err := NewGeometryByName(tbl.Schema(), "id", "price")
	if err != nil {
		t.Fatal(err)
	}
	near, err := ps.ScanNearStorage(geom, Conjunction{{Col: 1, Op: Lt, Operand: I32(5)}})
	if err != nil {
		t.Fatal(err)
	}
	host, err := ps.ScanHost(geom, Conjunction{{Col: 1, Op: Lt, Operand: I32(5)}})
	if err != nil {
		t.Fatal(err)
	}
	if string(near.Packed) != string(host.Packed) {
		t.Error("storage scans disagree through the public API")
	}
	if near.BytesToHost >= host.BytesToHost {
		t.Error("near-storage scan shipped no less than the host scan")
	}
}

func TestTxnManagerFacade(t *testing.T) {
	db, _ := Open(DefaultConfig())
	tbl, err := db.CreateTable("acct", demoSchema(t), 100, WithMVCC())
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewTxnManager(tbl)
	if err != nil {
		t.Fatal(err)
	}
	txn := mgr.Begin()
	if err := txn.Insert(I64(1), I32(1), F64(1), Str("a"), DateV(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	// RM query at the fresh snapshot sees the row.
	snap := mgr.Now()
	res, err := db.QueryOn(RM, fmt.Sprintf("SELECT id FROM acct AS OF %d", snap))
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsPassed != 1 {
		t.Errorf("rows at snapshot = %d, want 1", res.RowsPassed)
	}
}

func TestDBAutoEngine(t *testing.T) {
	db := demoDB(t, 3000)
	// Without a columnar copy AUTO must still answer (ROW or RM).
	res, err := db.QueryOn(AUTO, "SELECT id FROM items WHERE grp = 3")
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine == "COL" {
		t.Error("AUTO used a columnar copy that does not exist")
	}
	// Force a copy into existence, then AUTO may use it.
	if _, err := db.QueryOn(COL, "SELECT id FROM items"); err != nil {
		t.Fatal(err)
	}
	res2, err := db.QueryOn(AUTO, "SELECT id FROM items WHERE grp = 3")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := db.QueryOn(ROW, "SELECT id FROM items WHERE grp = 3")
	if err != nil {
		t.Fatal(err)
	}
	if err := res2.EquivalentTo(ref, 0); err != nil {
		t.Errorf("AUTO result diverges: %v", err)
	}
}

func TestPlanCacheReusesFragments(t *testing.T) {
	db := demoDB(t, 200)
	const q = "SELECT id FROM items WHERE grp = 1"
	p1, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("same text compiled twice")
	}
	st := db.PlanCache()
	if st.Hits != 1 || st.Misses != 1 || st.Resident != 1 {
		t.Errorf("cache stats: %+v", st)
	}
	if st.CompileCyclesSpent != CompileCycles {
		t.Errorf("compile cycles: %d", st.CompileCyclesSpent)
	}
	res, err := p1.Run(RM)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := db.QueryOn(RM, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.EquivalentTo(direct, 0); err != nil {
		t.Errorf("prepared run diverges: %v", err)
	}
	if _, err := db.Prepare("SELECT nope FROM items"); err == nil {
		t.Error("bad query compiled")
	}
}

func TestPublicJoinFacade(t *testing.T) {
	db, _ := Open(DefaultConfig())
	oSchema, _ := NewSchema(
		Column{Name: "o_id", Type: Int64, Width: 8},
		Column{Name: "o_total", Type: Float64, Width: 8},
	)
	iSchema, _ := NewSchema(
		Column{Name: "i_order", Type: Int64, Width: 8},
		Column{Name: "i_qty", Type: Int32, Width: 4},
	)
	if _, err := db.CreateTable("orders", oSchema, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("items", iSchema, 300); err != nil {
		t.Fatal(err)
	}
	for o := 0; o < 100; o++ {
		if err := db.Insert("orders", I64(int64(o)), F64(float64(o))); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < o%4; k++ {
			if err := db.Insert("items", I64(int64(o)), I32(int32(k))); err != nil {
				t.Fatal(err)
			}
		}
	}
	const q = `SELECT i_qty, o_total FROM items JOIN orders ON i_order = o_id`
	db.System().ResetState()
	row, err := db.QueryOn(ROW, q)
	if err != nil {
		t.Fatal(err)
	}
	db.System().ResetState()
	rm, err := db.QueryOn(RM, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := row.EquivalentTo(rm, 0); err != nil {
		t.Errorf("public join paths disagree: %v", err)
	}
	if row.RowsPassed != 150 { // sum over o of o%4 = 25*(0+1+2+3)
		t.Errorf("matches = %d, want 150", row.RowsPassed)
	}
}

func TestPublicShardFacade(t *testing.T) {
	sch := demoSchema(t)
	st, err := NewShardedTable("s", sch, 0, []int64{500}, 1000, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := st.Insert(I64(int64(i)), I32(int32(i%5)), F64(float64(i)), Str("x"), DateV(1)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := st.Execute("SELECT id FROM s WHERE id < 100")
	if err != nil {
		t.Fatal(err)
	}
	if res.Morsels != 1 || res.RowsPassed != 100 {
		t.Errorf("sharded query: touched=%d rows=%d", res.Morsels, res.RowsPassed)
	}
}

func TestPublicIndexFacade(t *testing.T) {
	db := demoDB(t, 1000)
	tbl, _ := db.Table("items")
	idx, err := BuildIndex(db.System(), tbl, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows := idx.Lookup(db.System().Hier, 77)
	if len(rows) != 1 {
		t.Fatalf("Lookup(77) = %v", rows)
	}
	v, _ := tbl.Get(rows[0], 0)
	if v.Int != 77 {
		t.Errorf("indexed row has id %d", v.Int)
	}
}

func TestPublicMatrixFacade(t *testing.T) {
	sys, _ := NewSystem(DefaultConfig())
	m, err := NewMatrix(sys, 50, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Set(10, 3, 1.5); err != nil {
		t.Fatal(err)
	}
	s, err := m.SliceColsFabric(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if s.At(10, 1) != 1.5 {
		t.Errorf("slice element = %v", s.At(10, 1))
	}
}

func TestDBIndexAndAutoRouting(t *testing.T) {
	db := demoDB(t, 20_000)
	if _, err := db.CreateIndex("items", "id"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("items", "id"); err == nil {
		t.Error("duplicate index accepted")
	}
	// A point query on the indexed column should route to the index and
	// still agree with a scan.
	const q = "SELECT price FROM items WHERE id = 777"
	ref, err := db.QueryOn(ROW, q)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := db.QueryOn(AUTO, q)
	if err != nil {
		t.Fatal(err)
	}
	if auto.Engine != "IDX" {
		t.Errorf("point query on indexed column routed to %s", auto.Engine)
	}
	if err := auto.EquivalentTo(ref, 0); err != nil {
		t.Errorf("indexed execution diverges: %v", err)
	}
	// Index is maintained across inserts.
	if err := db.Insert("items", I64(777_777), I32(1), F64(9.5), Str("red"), DateV(1)); err != nil {
		t.Fatal(err)
	}
	got, err := db.QueryOn(AUTO, "SELECT price FROM items WHERE id = 777777")
	if err != nil {
		t.Fatal(err)
	}
	if got.RowsPassed != 1 {
		t.Errorf("freshly inserted row invisible to the index path (rows=%d)", got.RowsPassed)
	}
}
