package rfabric

import (
	"fmt"
	"math"
	"testing"
)

// TestMergedAvgIsSumOverCount holds PAR (default morsels) and a sharded
// table to the (sum, count) merge: partitions merge their AVG states, not
// their finished averages, so every grouped and ungrouped AVG equals the
// same statement's SUM / COUNT(*) bit for bit. Re-weighting finished
// averages (Σ avg·n / Σ n) loses bits in some groups.
func TestMergedAvgIsSumOverCount(t *testing.T) {
	db := tpchDB(t, 24000)
	for _, text := range []string{
		"SELECT AVG(l_extendedprice), SUM(l_extendedprice), COUNT(*) FROM lineitem",
		"SELECT AVG(l_discount), SUM(l_discount), COUNT(*) FROM lineitem WHERE l_quantity < 30",
		"SELECT l_partkey, AVG(l_extendedprice), SUM(l_extendedprice), COUNT(*) FROM lineitem GROUP BY l_partkey",
		"SELECT l_suppkey, AVG(l_extendedprice * (1 - l_discount)), SUM(l_extendedprice * (1 - l_discount)), COUNT(*) FROM lineitem GROUP BY l_suppkey",
		"SELECT l_returnflag, l_linestatus, AVG(l_quantity), SUM(l_quantity), COUNT(*) FROM lineitem GROUP BY l_returnflag, l_linestatus",
	} {
		res, err := db.QueryOn(PAR, text)
		if err != nil {
			t.Fatalf("PAR %q: %v", text, err)
		}
		if res.Morsels < 2 {
			t.Fatalf("PAR %q ran %d morsels; the merge needs several", text, res.Morsels)
		}
		checkAvgIsSumOverCount(t, "PAR "+text, res)
	}

	sch, err := NewSchema(
		Column{Name: "id", Type: Int64, Width: 8},
		Column{Name: "g", Type: Int32, Width: 4},
		Column{Name: "v", Type: Float64, Width: 8},
	)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 24000
	st, err := NewShardedTable("s", sch, 0, []int64{6000, 12000, 18000}, rows, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := st.Insert(I64(int64(i)), I32(int32((i*7)%101)), F64(float64((i*7919)%10007)/7.3)); err != nil {
			t.Fatal(err)
		}
	}
	for _, text := range []string{
		"SELECT AVG(v), SUM(v), COUNT(*) FROM s",
		"SELECT AVG(v), SUM(v), COUNT(*) FROM s WHERE id >= 3000",
		"SELECT g, AVG(v), SUM(v), COUNT(*) FROM s GROUP BY g",
	} {
		res, err := st.Execute(text)
		if err != nil {
			t.Fatalf("sharded %q: %v", text, err)
		}
		checkAvgIsSumOverCount(t, "sharded "+text, res)
	}
}

// checkAvgIsSumOverCount checks a result whose last three aggregates are
// AVG(x), SUM(x) and COUNT(*), ungrouped or per group.
func checkAvgIsSumOverCount(t *testing.T, what string, res *Result) {
	t.Helper()
	check := func(where string, aggs []Value) {
		n := len(aggs)
		avg, sum, count := aggs[n-3].Float, aggs[n-2].Float, aggs[n-1].Int
		if want := sum / float64(count); math.Float64bits(avg) != math.Float64bits(want) {
			t.Errorf("%s%s: AVG %v, want SUM/COUNT %v/%d = %v", what, where, avg, sum, count, want)
		}
	}
	if res.Groups == nil {
		check("", res.Aggs)
		return
	}
	for _, g := range res.Groups {
		check(fmt.Sprintf(" group %v", g.Key), g.Aggs)
	}
}
