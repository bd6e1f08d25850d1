package sql

import (
	"strings"
	"testing"

	"rfabric/internal/plan"
)

func TestParseOrderByNamedKeys(t *testing.T) {
	st, err := Parse("SELECT flag, COUNT(*) FROM t GROUP BY flag ORDER BY flag DESC, id ASC, qty")
	if err != nil {
		t.Fatal(err)
	}
	want := []OrderItem{
		{Column: "flag", Desc: true},
		{Column: "id"},
		{Column: "qty"},
	}
	if len(st.OrderBy) != len(want) {
		t.Fatalf("order by = %+v", st.OrderBy)
	}
	for i, it := range st.OrderBy {
		if it != want[i] {
			t.Errorf("key %d = %+v, want %+v", i, it, want[i])
		}
	}
}

func TestParseOrderByOrdinalsAndLimit(t *testing.T) {
	st, err := Parse("SELECT flag, SUM(qty) FROM t GROUP BY flag ORDER BY 2 DESC, 1 LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.OrderBy) != 2 || st.OrderBy[0].Ordinal != 2 || !st.OrderBy[0].Desc || st.OrderBy[1].Ordinal != 1 {
		t.Errorf("order by = %+v", st.OrderBy)
	}
	if !st.HasLimit || st.Limit != 10 {
		t.Errorf("limit = %d (has=%v)", st.Limit, st.HasLimit)
	}
}

func TestParseLimitZero(t *testing.T) {
	st, err := Parse("SELECT flag, COUNT(*) FROM t GROUP BY flag LIMIT 0")
	if err != nil {
		t.Fatal(err)
	}
	if !st.HasLimit || st.Limit != 0 {
		t.Errorf("LIMIT 0 parsed as %d (has=%v)", st.Limit, st.HasLimit)
	}
}

func TestParseSinkErrors(t *testing.T) {
	cases := []struct {
		query   string
		wantErr string
	}{
		{"SELECT flag, COUNT(*) FROM t GROUP BY flag ORDER BY 0", "bad ORDER BY ordinal"},
		{"SELECT flag, COUNT(*) FROM t GROUP BY flag ORDER BY 1.5", "bad ORDER BY ordinal"},
		{"SELECT flag, COUNT(*) FROM t GROUP BY flag ORDER BY *", "expected column or ordinal in ORDER BY"},
		{"SELECT flag, COUNT(*) FROM t GROUP BY flag LIMIT x", "expected row count after LIMIT"},
		{"SELECT flag, COUNT(*) FROM t GROUP BY flag LIMIT -1", "expected row count after LIMIT"},
		{"SELECT flag, COUNT(*) FROM t GROUP BY flag ORDER BY", "expected column or ordinal in ORDER BY"},
	}
	for _, c := range cases {
		_, err := Parse(c.query)
		if err == nil {
			t.Errorf("Parse(%q) accepted", c.query)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("Parse(%q) error = %q, want substring %q", c.query, err, c.wantErr)
		}
	}
}

// Satellite: parser error messages must stay diagnostic — the trailing-token
// and bad-literal paths name the offending token, not just "syntax error".
func TestParseErrorMessages(t *testing.T) {
	cases := []struct {
		query   string
		wantErr string
	}{
		{"SELECT id FROM t extra", `trailing input starting at "extra"`},
		{"SELECT flag, COUNT(*) FROM t GROUP BY flag LIMIT 3 4", `trailing input starting at "4"`},
		{"SELECT id FROM t WHERE qty < FROM", `expected literal, got "FROM"`},
		{"SELECT id FROM t WHERE shipdate >= DATE 1994", "expected 'YYYY-MM-DD' after DATE"},
		{"SELECT id FROM t WHERE qty < -'x'", "cannot negate a non-numeric literal"},
	}
	for _, c := range cases {
		_, err := Parse(c.query)
		if err == nil {
			t.Errorf("Parse(%q) accepted", c.query)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("Parse(%q) error = %q, want substring %q", c.query, err, c.wantErr)
		}
	}
}

func TestLowerOrderByAndLimit(t *testing.T) {
	sch := testSchema(t)
	root, err := Compile(
		"SELECT flag, COUNT(*), SUM(qty) FROM t GROUP BY flag ORDER BY 3 DESC, flag LIMIT 5", sch)
	if err != nil {
		t.Fatal(err)
	}
	if root.Op != plan.OpLimit || root.N != 5 {
		t.Fatalf("root = %s", root.Op)
	}
	ob := root.Input
	if ob.Op != plan.OpOrderBy {
		t.Fatalf("expected OrderBy below Limit, got %s", ob.Op)
	}
	want := []plan.SortKey{
		{Key: -1, Agg: 1, Desc: true}, // ordinal 3 is the second aggregate
		{Key: 0, Agg: -1},             // flag is group key 0
	}
	if len(ob.Keys) != len(want) {
		t.Fatalf("keys = %+v", ob.Keys)
	}
	for i, k := range ob.Keys {
		if k != want[i] {
			t.Errorf("key %d = %+v, want %+v", i, k, want[i])
		}
	}
}

func TestLowerOrdinalResolvesGroupKey(t *testing.T) {
	sch := testSchema(t)
	root, err := Compile("SELECT flag, COUNT(*) FROM t GROUP BY flag ORDER BY 1", sch)
	if err != nil {
		t.Fatal(err)
	}
	ob := root
	if ob.Op != plan.OpOrderBy {
		t.Fatalf("root = %s", ob.Op)
	}
	if k := ob.Keys[0]; k.Key != 0 || k.Agg != -1 {
		t.Errorf("ordinal 1 resolved to %+v", k)
	}
}

func TestLowerLimitZero(t *testing.T) {
	sch := testSchema(t)
	root, err := Compile("SELECT flag, COUNT(*) FROM t GROUP BY flag LIMIT 0", sch)
	if err != nil {
		t.Fatal(err)
	}
	if root.Op != plan.OpLimit || root.N != 0 {
		t.Errorf("LIMIT 0 lowered to %s N=%d", root.Op, root.N)
	}
	if err := root.Validate(); err != nil {
		t.Errorf("LIMIT 0 plan invalid: %v", err)
	}
}

func TestLowerSinkErrors(t *testing.T) {
	sch := testSchema(t)
	cases := []struct {
		query   string
		wantErr string
	}{
		{"SELECT COUNT(*) FROM t ORDER BY 1", "OrderBy requires grouped aggregation"},
		{"SELECT id FROM t ORDER BY id", `ORDER BY column "id" is not a group key`},
		{"SELECT id FROM t LIMIT 3", "Limit requires grouped aggregation"},
		{"SELECT flag, COUNT(*) FROM t GROUP BY flag ORDER BY 5", "ordinal 5 exceeds the 2 select items"},
		{"SELECT flag, COUNT(*) FROM t GROUP BY flag ORDER BY nosuch", `unknown column "nosuch"`},
		{"SELECT flag, COUNT(*) FROM t GROUP BY flag ORDER BY qty", `ORDER BY column "qty" is not a group key`},
	}
	for _, c := range cases {
		_, err := Compile(c.query, sch)
		if err == nil {
			t.Errorf("Compile(%q) accepted", c.query)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("Compile(%q) error = %q, want substring %q", c.query, err, c.wantErr)
		}
	}
}
