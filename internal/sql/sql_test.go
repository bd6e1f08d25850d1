package sql

import (
	"strings"
	"testing"
	"testing/quick"

	"rfabric/internal/engine"
	"rfabric/internal/expr"
	"rfabric/internal/geometry"
)

func testSchema(t *testing.T) *geometry.Schema {
	t.Helper()
	return geometry.MustSchema(
		geometry.Column{Name: "id", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "qty", Type: geometry.Float64, Width: 8},
		geometry.Column{Name: "price", Type: geometry.Float64, Width: 8},
		geometry.Column{Name: "flag", Type: geometry.Char, Width: 1},
		geometry.Column{Name: "shipdate", Type: geometry.Date, Width: 4},
		geometry.Column{Name: "cnt", Type: geometry.Int32, Width: 4},
	)
}

func TestParseProjection(t *testing.T) {
	st, err := Parse("SELECT id, price FROM items")
	if err != nil {
		t.Fatal(err)
	}
	if st.Table != "items" {
		t.Errorf("table = %q", st.Table)
	}
	if len(st.Items) != 2 || st.Items[0].Column != "id" || st.Items[1].Column != "price" {
		t.Errorf("items = %+v", st.Items)
	}
}

func TestParseCaseInsensitiveKeywordsLowercaseIdents(t *testing.T) {
	st, err := Parse("select ID from Items where QTY < 5")
	if err != nil {
		t.Fatal(err)
	}
	if st.Table != "items" || st.Items[0].Column != "id" || st.Where[0].Column != "qty" {
		t.Errorf("parsed %+v", st)
	}
}

func TestParseWhere(t *testing.T) {
	st, err := Parse("SELECT id FROM t WHERE qty < 5 AND flag = 'R' AND shipdate >= DATE '1994-01-01'")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Where) != 3 {
		t.Fatalf("where = %+v", st.Where)
	}
	if st.Where[1].Lit.Str != "R" {
		t.Errorf("string literal = %+v", st.Where[1].Lit)
	}
	if !st.Where[2].Lit.IsDate {
		t.Errorf("date literal not flagged: %+v", st.Where[2].Lit)
	}
}

func TestParseBetweenDesugars(t *testing.T) {
	st, err := Parse("SELECT id FROM t WHERE qty BETWEEN 2 AND 7 AND id > 0")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Where) != 3 {
		t.Fatalf("BETWEEN produced %d conjuncts: %+v", len(st.Where), st.Where)
	}
	if st.Where[0].Op != ">=" || st.Where[0].Lit.Num != 2 {
		t.Errorf("lower bound = %+v", st.Where[0])
	}
	if st.Where[1].Op != "<=" || st.Where[1].Lit.Num != 7 {
		t.Errorf("upper bound = %+v", st.Where[1])
	}
}

func TestParseAggregatesAndGroupBy(t *testing.T) {
	st, err := Parse("SELECT flag, COUNT(*), SUM(price * (1 - qty)), AVG(qty) FROM t GROUP BY flag")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Items) != 4 {
		t.Fatalf("items = %+v", st.Items)
	}
	if !st.Items[1].Agg.Star {
		t.Error("COUNT(*) not recognized")
	}
	if st.Items[2].Agg.Func != "SUM" {
		t.Errorf("agg func = %q", st.Items[2].Agg.Func)
	}
	if len(st.GroupBy) != 1 || st.GroupBy[0] != "flag" {
		t.Errorf("group by = %v", st.GroupBy)
	}
}

func TestParseArithPrecedence(t *testing.T) {
	st, err := Parse("SELECT SUM(price + qty * 2) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	top, ok := st.Items[0].Agg.Arg.(BinExpr)
	if !ok || top.Op != "+" {
		t.Fatalf("top = %+v", st.Items[0].Agg.Arg)
	}
	if right, ok := top.R.(BinExpr); !ok || right.Op != "*" {
		t.Errorf("* did not bind tighter than +: %+v", top.R)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t WHERE a <",
		"SELECT a FROM t WHERE a 5",
		"SELECT COUNT( FROM t",
		"SELECT SUM(*) FROM t",
		"SELECT a FROM t GROUP BY",
		"SELECT a FROM t trailing garbage",
		"SELECT a FROM t WHERE a = 'unterminated",
		"SELECT a FROM t WHERE a = DATE 42",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) succeeded", q)
		}
	}
}

// compileQuery compiles a single-table statement and returns the pipeline
// query its plan runs.
func compileQuery(text string, s *geometry.Schema) (engine.Query, error) {
	root, err := Compile(text, s)
	if err != nil {
		return engine.Query{}, err
	}
	q, _, err := engine.FromPlan(root)
	return q, err
}

func TestPlanProjectionScan(t *testing.T) {
	s := testSchema(t)
	q, err := compileQuery("SELECT id, price FROM t WHERE qty < 5", s)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Projection) != 2 || q.Projection[0] != 0 || q.Projection[1] != 2 {
		t.Errorf("projection = %v", q.Projection)
	}
	if len(q.Selection) != 1 || q.Selection[0].Col != 1 || q.Selection[0].Op != expr.Lt {
		t.Errorf("selection = %+v", q.Selection)
	}
	if q.Selection[0].Operand.Float != 5 {
		t.Errorf("operand = %+v", q.Selection[0].Operand)
	}
}

func TestPlanLiteralCoercion(t *testing.T) {
	s := testSchema(t)
	q, err := compileQuery("SELECT id FROM t WHERE id = 7 AND cnt < 3 AND flag = 'R' AND shipdate < DATE '1994-01-01'", s)
	if err != nil {
		t.Fatal(err)
	}
	if q.Selection[0].Operand.Type != geometry.Int64 || q.Selection[0].Operand.Int != 7 {
		t.Errorf("int64 coercion: %+v", q.Selection[0].Operand)
	}
	if q.Selection[1].Operand.Type != geometry.Int32 {
		t.Errorf("int32 coercion: %+v", q.Selection[1].Operand)
	}
	if q.Selection[2].Operand.Type != geometry.Char {
		t.Errorf("char coercion: %+v", q.Selection[2].Operand)
	}
	if q.Selection[3].Operand.Type != geometry.Date || q.Selection[3].Operand.Int != 8766 {
		t.Errorf("date coercion: %+v (1994-01-01 = day 8766)", q.Selection[3].Operand)
	}
}

func TestPlanAggregates(t *testing.T) {
	s := testSchema(t)
	q, err := compileQuery("SELECT flag, COUNT(*), SUM(price * (1 - qty)) FROM t GROUP BY flag", s)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.GroupBy) != 1 || q.GroupBy[0] != 3 {
		t.Errorf("group by = %v", q.GroupBy)
	}
	if len(q.Aggregates) != 2 {
		t.Fatalf("aggregates = %+v", q.Aggregates)
	}
	if q.Aggregates[0].Kind != expr.Count || q.Aggregates[0].Arg != nil {
		t.Errorf("COUNT term = %+v", q.Aggregates[0])
	}
	if q.Aggregates[1].Kind != expr.Sum {
		t.Errorf("SUM term = %+v", q.Aggregates[1])
	}
	// The derived expression reads price and qty.
	cols := q.Aggregates[1].Arg.Columns()
	if len(cols) != 2 {
		t.Errorf("derived columns = %v", cols)
	}
}

func TestPlanErrors(t *testing.T) {
	s := testSchema(t)
	bad := []string{
		"SELECT nope FROM t",
		"SELECT id FROM t WHERE nope = 1",
		"SELECT id FROM t WHERE flag = 3",          // type mismatch
		"SELECT id FROM t WHERE qty = 'x'",         // type mismatch
		"SELECT SUM(flag) FROM t",                  // arithmetic over CHAR
		"SELECT id, COUNT(*) FROM t",               // bare column not grouped
		"SELECT flag, COUNT(*) FROM t GROUP BY id", // flag not in GROUP BY
	}
	for _, q := range bad {
		if _, err := Compile(q, s); err == nil {
			t.Errorf("Compile(%q) succeeded", q)
		}
	}
}

func TestDateRoundTrip(t *testing.T) {
	cases := []string{"1970-01-01", "1994-01-01", "1998-09-02", "2026-07-04"}
	for _, s := range cases {
		day, err := ParseDate(s)
		if err != nil {
			t.Fatalf("ParseDate(%q): %v", s, err)
		}
		if got := FormatDate(day); got != s {
			t.Errorf("round trip %q -> %d -> %q", s, day, got)
		}
	}
	if _, err := ParseDate("not-a-date"); err == nil {
		t.Error("bad date accepted")
	}
	if day, _ := ParseDate("1970-01-01"); day != 0 {
		t.Errorf("epoch = %d, want 0", day)
	}
}

// TestLexerNeverPanicsProperty: the lexer/parser must fail cleanly, never
// panic, on arbitrary input.
func TestParserNeverPanicsProperty(t *testing.T) {
	check := func(input string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = Parse(input)
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// Also exercise SQL-looking fragments, not just random unicode.
	fragments := []string{"SELECT", "FROM", "WHERE", "(", ")", ",", "*", "a", "1.5", "'s'", "<", "<=", "AND", "BETWEEN", "DATE"}
	for seed := 0; seed < 300; seed++ {
		var b strings.Builder
		n := seed%7 + 1
		for i := 0; i < n; i++ {
			b.WriteString(fragments[(seed*31+i*17)%len(fragments)])
			b.WriteByte(' ')
		}
		if !check(b.String()) {
			t.Fatalf("parser panicked on %q", b.String())
		}
	}
}

func TestNegativeNumericLiteral(t *testing.T) {
	s := testSchema(t)
	q, err := compileQuery("SELECT id FROM t WHERE price > -2.5", s)
	if err != nil {
		t.Fatal(err)
	}
	if q.Selection[0].Operand.Float != -2.5 {
		t.Errorf("operand = %+v", q.Selection[0].Operand)
	}
}

func TestGroupByMultipleColumns(t *testing.T) {
	s := testSchema(t)
	q, err := compileQuery("SELECT flag, cnt, COUNT(*) FROM t GROUP BY flag, cnt", s)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.GroupBy) != 2 || q.GroupBy[0] != 3 || q.GroupBy[1] != 5 {
		t.Errorf("group by = %v", q.GroupBy)
	}
}

// TestAsOfLowersToScanSnapshot: AS OF parses to the statement's snapshot,
// lowers onto the Scan (and from there into the pipeline query), and
// renders on the EXPLAIN line.
func TestAsOfLowersToScanSnapshot(t *testing.T) {
	s := testSchema(t)
	root, err := Compile("SELECT id FROM t AS OF 42 WHERE qty < 5", s)
	if err != nil {
		t.Fatal(err)
	}
	scan := root.Scan()
	if scan.Snapshot == nil || *scan.Snapshot != 42 {
		t.Fatalf("scan snapshot = %v, want 42", scan.Snapshot)
	}
	if !strings.Contains(root.Explain(s), "@snapshot=42") {
		t.Errorf("EXPLAIN does not show the snapshot:\n%s", root.Explain(s))
	}
	q, err := compileQuery("select id from t as of 7", s)
	if err != nil {
		t.Fatal(err)
	}
	if q.Snapshot == nil || *q.Snapshot != 7 {
		t.Errorf("query snapshot = %v, want 7", q.Snapshot)
	}
	plain, err := Compile("SELECT id FROM t", s)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Scan().Snapshot != nil {
		t.Errorf("statement without AS OF has snapshot %d", *plain.Scan().Snapshot)
	}
}

func TestAsOfErrors(t *testing.T) {
	s := testSchema(t)
	for _, c := range []struct{ query, wantErr string }{
		{"SELECT id FROM t AS 42", "expected OF"},
		{"SELECT id FROM t AS OF", "expected snapshot timestamp"},
		{"SELECT id FROM t AS OF 1.5", "expected snapshot timestamp"},
		{"SELECT id FROM t AS OF 'x'", "expected snapshot timestamp"},
		{"SELECT id FROM t AS OF -1", "expected snapshot timestamp"},
		{"SELECT id FROM t AS OF 99999999999999999999", "expected snapshot timestamp"},
		{"SELECT id FROM t WHERE id = 1 AS OF 3", "trailing input"},
	} {
		_, err := Compile(c.query, s)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("Compile(%q) error = %v, want substring %q", c.query, err, c.wantErr)
		}
	}
	// A join reads every side at the latest versions; AS OF is rejected at
	// lowering.
	st, err := Parse("SELECT l_orderkey FROM lineitem AS OF 3 JOIN orders ON l_orderkey = o_orderkey")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LowerCatalog(st, tpchLookup); err == nil || !strings.Contains(err.Error(), "AS OF") {
		t.Errorf("LowerCatalog accepted AS OF on a join: %v", err)
	}
}

// TestGroupByWithoutAggregatesRejected: a GROUP BY needs an aggregate in
// the select list, on single-table statements and joins alike.
func TestGroupByWithoutAggregatesRejected(t *testing.T) {
	if _, err := Compile("SELECT flag FROM t GROUP BY flag", testSchema(t)); err == nil ||
		!strings.Contains(err.Error(), "GROUP BY without aggregates") {
		t.Errorf("single-table: error = %v", err)
	}
	st, err := Parse("SELECT o_orderdate FROM lineitem JOIN orders ON l_orderkey = o_orderkey GROUP BY o_orderdate")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LowerCatalog(st, tpchLookup); err == nil ||
		!strings.Contains(err.Error(), "GROUP BY without aggregates") {
		t.Errorf("join: error = %v", err)
	}
}
