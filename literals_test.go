package rfabric

import (
	"fmt"
	"math/big"
	"strings"
	"testing"
)

// TestNumericLiteralsCompareExactly compares integer columns (BIGINT, INT,
// DATE; indexed and not) against fractional, integral and out-of-range
// numeric literals under every operator, on ROW and AUTO, and on IDX where
// the column is indexed and the operator bounds it. The reference counts
// the rows whose value compares to the literal's exact rational value as
// the operator asks, written with math/big and the generators' row
// formulas, not with the SQL front end.
func TestNumericLiteralsCompareExactly(t *testing.T) {
	const rows = 1000
	lits := []string{
		"2.5", "2", "-2.5", "0.5", "-0", "99.0", "99.5", "8001.5", "8999",
		"4294967297", "-4294967297", "2147483647", "2147483648", "-2147483648", "-2147483649",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
		"3.0000000000000000001", "2.9999999999999999999", "18446744073709551616.5", "5.", ".5", "-.5",
	}
	items := itemsDB(t, rows)
	if _, err := items.CreateIndex("items", "qty"); err != nil {
		t.Fatal(err)
	}
	demo := demoDB(t, rows)
	if _, err := demo.CreateIndex("items", "day"); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		db      *DB
		col     string
		indexed bool
		value   func(i int) int64
	}{
		{items, "id", false, func(i int) int64 { return int64(i) }},
		{items, "branch", false, func(i int) int64 { return int64(i % 11) }},
		{items, "qty", true, func(i int) int64 { return int64(i % 100) }},
		{demo, "grp", false, func(i int) int64 { return int64(i % 10) }},
		{demo, "day", true, func(i int) int64 { return int64(8000 + i%1000) }},
	}
	holds := map[string]func(int) bool{
		"<": func(c int) bool { return c < 0 }, "<=": func(c int) bool { return c <= 0 },
		"=": func(c int) bool { return c == 0 }, "<>": func(c int) bool { return c != 0 },
		">=": func(c int) bool { return c >= 0 }, ">": func(c int) bool { return c > 0 },
	}
	for _, tc := range cases {
		for _, lit := range lits {
			x, ok := new(big.Rat).SetString(lit)
			if !ok {
				t.Fatalf("reference cannot parse %q", lit)
			}
			for _, op := range strings.Fields("< <= = <> >= >") {
				want := int64(0)
				for i := 0; i < rows; i++ {
					if holds[op](new(big.Rat).SetInt64(tc.value(i)).Cmp(x)) {
						want++
					}
				}
				text := fmt.Sprintf("SELECT COUNT(*) FROM items WHERE %s %s %s", tc.col, op, lit)
				kinds := []EngineKind{ROW, AUTO}
				if tc.indexed && op != "<>" { // <> leaves no key range to walk

					kinds = append(kinds, "IDX")
				}
				for _, kind := range kinds {
					res, err := tc.db.QueryOn(kind, text)
					if err != nil {
						t.Fatalf("%s on %s: %v", text, kind, err)
					}
					if got := res.Aggs[0].Int; got != want {
						t.Errorf("%s on %s (ran %s): %d rows, want %d", text, kind, res.Engine, got, want)
					}
				}
			}
		}
	}
}
