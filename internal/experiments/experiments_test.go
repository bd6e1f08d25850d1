package experiments

import (
	"testing"

	"rfabric/internal/plan"
	"rfabric/internal/sql"
	"rfabric/internal/tpch"
)

// quickOptions shrinks the sweeps so the shape tests run in seconds while
// the tables still exceed the simulated L2.
func quickOptions() Options {
	opt := DefaultOptions()
	opt.MicroRows = 48_000
	opt.Fig7TargetMB = []int{1, 2}
	return opt
}

func TestFigure5ReproducesPaperShape(t *testing.T) {
	r, err := Figure5(quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 11 {
		t.Fatalf("got %d projectivity points, want 11", len(r.Points))
	}
	for _, v := range r.CheckShape() {
		t.Error(v)
	}
	// The paper's RM curve is flat-ish: the spread across projectivities
	// should stay well under the COL curve's spread.
	lo, hi := r.Points[0].Normalized["RM"], r.Points[0].Normalized["RM"]
	for _, p := range r.Points {
		n := p.Normalized["RM"]
		if n < lo {
			lo = n
		}
		if n > hi {
			hi = n
		}
	}
	if hi/lo > 2.0 {
		t.Errorf("RM normalized time varies %.2fx across projectivity; paper's curve is nearly flat", hi/lo)
	}
}

func TestFigure6ReproducesPaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full 10x10 grid; skipped with -short")
	}
	opt := quickOptions()
	opt.MicroRows = 24_000
	r, err := Figure6(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range r.CheckShape() {
		t.Error(v)
	}
	if r.PassedRows != int64(opt.MicroRows) {
		t.Errorf("grid predicates must pass every row; passed %d of %d", r.PassedRows, opt.MicroRows)
	}
}

func TestFigure7Q1ReproducesPaperShape(t *testing.T) {
	r, err := Figure7(quickOptions(), Q1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range r.CheckShape() {
		t.Error(v)
	}
}

func TestFigure7Q6ReproducesPaperShape(t *testing.T) {
	r, err := Figure7(quickOptions(), Q6)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range r.CheckShape() {
		t.Error(v)
	}
	// Q6 should be selective: roughly 2 % of rows qualify.
	for _, p := range r.Points {
		sel := float64(p.RowsPassed) / float64(p.Rows)
		if sel < 0.005 || sel > 0.06 {
			t.Errorf("Q6 selectivity %.4f at %d rows outside the TPC-H ballpark (~0.019)", sel, p.Rows)
		}
	}
}

func TestFigure7ScalesLinearly(t *testing.T) {
	opt := quickOptions()
	opt.Fig7TargetMB = []int{1, 4}
	r, err := Figure7(opt, Q6)
	if err != nil {
		t.Fatal(err)
	}
	// 4x the data should take roughly 4x the cycles on every engine (the
	// paper's log-log series are straight lines).
	for _, name := range []string{"ROW", "COL", "RM"} {
		ratio := float64(r.Points[1].Cycles[name]) / float64(r.Points[0].Cycles[name])
		if ratio < 3.0 || ratio > 5.5 {
			t.Errorf("%s scaled %.2fx for 4x data; expected near-linear scaling", name, ratio)
		}
	}
}

func TestAblationOffloadShape(t *testing.T) {
	r, err := AblationOffload(quickOptions(), 12_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range r.CheckShape() {
		t.Error(v)
	}
	if len(r.Points) != 8 {
		t.Errorf("got %d grid points, want 8", len(r.Points))
	}
}

func TestTargetColumnSizing(t *testing.T) {
	lower := func(text string) *plan.Node {
		root, err := sql.Compile(text, tpch.LineitemSchema())
		if err != nil {
			t.Fatal(err)
		}
		return root
	}
	q6 := lower(tpch.Q6SQL)
	// Q6 touches shipdate(4) + discount(8) + quantity(8) + extendedprice(8).
	if got := TargetColumnBytes(q6); got != 28 {
		t.Errorf("Q6 target bytes = %d, want 28", got)
	}
	rows := RowsForTargetBytes(q6, 28_000)
	if rows != 1000 {
		t.Errorf("RowsForTargetBytes = %d, want 1000", rows)
	}
	q1 := lower(tpch.Q1SQL)
	if got := TargetColumnBytes(q1); got != 4+1+1+8+8+8+8 {
		t.Errorf("Q1 target bytes = %d", got)
	}
}
