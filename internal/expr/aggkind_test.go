package expr_test

import (
	"testing"

	"rfabric/internal/expr"
	"rfabric/internal/geometry"
	"rfabric/internal/table"
	"rfabric/internal/vec"
)

// Every fold — the engines' batch consumers, the fabric's offload program and
// the storage controller — keeps a vec.AggState and finalizes it for an
// AggKind through vec.AggState.Result. These tests pin that convention:
// COUNT is BIGINT, every other kind DOUBLE, and zero rows finalize to 0.

func TestAccumulators(t *testing.T) {
	lane := []int64{5, -3, 12, 0}
	sel := []int32{0, 1, 2, 3}
	cases := []struct {
		kind expr.AggKind
		res  table.Value
	}{
		{expr.Count, table.I64(4)},
		{expr.Sum, table.F64(14)},
		{expr.Min, table.F64(-3)},
		{expr.Max, table.F64(12)},
		{expr.Avg, table.F64(3.5)},
	}
	for _, c := range cases {
		var st vec.AggState
		(&vec.Col{Type: geometry.Int64, I64: lane}).AddTo(&st, sel)
		if got := st.Result(c.kind); !got.Equal(c.res) {
			t.Errorf("%s = %s, want %s", c.kind, got, c.res)
		}
		var empty vec.AggState
		want := table.F64(0)
		if c.kind == expr.Count {
			want = table.I64(0)
		}
		if got := empty.Result(c.kind); !got.Equal(want) {
			t.Errorf("%s over zero rows = %s, want %s", c.kind, got, want)
		}
	}
}

func TestAccumulatorFloat(t *testing.T) {
	var st vec.AggState
	(&vec.Col{Type: geometry.Float64, F64: []float64{1.5, 2.25}}).AddTo(&st, []int32{0, 1})
	if got := st.Result(expr.Sum); got.Float != 3.75 {
		t.Errorf("float SUM = %s", got)
	}
}
