package experiments

import (
	"fmt"
	"io"
)

// Fig5Point is one projectivity level of Figure 5.
type Fig5Point struct {
	Projectivity int
	Columns      []int // projected column indices
	Cycles       map[string]uint64
	// Normalized holds each engine's cycles divided by ROW's at the same
	// projectivity, the paper's y-axis convention (ROW ≡ 1.0).
	Normalized map[string]float64
}

// Fig5Result is the full Figure 5 sweep.
type Fig5Result struct {
	Rows   int
	Points []Fig5Point
}

// fig5Columns spreads p projected columns evenly over a 16-column schema,
// exercising the scattered column-group geometry the fabric gathers.
func fig5Columns(p, total int) []int {
	cols := make([]int, p)
	for k := 0; k < p; k++ {
		cols[k] = k * total / p
	}
	return cols
}

// Figure5 reproduces the projectivity sweep: a projection-only scan over
// 64-byte rows of 16 four-byte columns, projectivity 1–11, on ROW vs COL
// vs RM (§V "RM Shines for Queries with High Projectivity").
func Figure5(opt Options) (*Fig5Result, error) {
	const totalCols = 16
	l, err := microLab(opt.System, totalCols, opt.MicroRows, opt.Seed)
	if err != nil {
		return nil, err
	}
	res := &Fig5Result{Rows: opt.MicroRows}
	for p := 1; p <= 11; p++ {
		cols := fig5Columns(p, totalCols)
		root, err := l.lower(microSQL(cols, nil))
		if err != nil {
			return nil, err
		}
		all, err := l.runAll(root)
		if err != nil {
			return nil, fmt.Errorf("figure 5 projectivity %d: %w", p, err)
		}
		pt := Fig5Point{
			Projectivity: p,
			Columns:      cols,
			Cycles:       map[string]uint64{},
			Normalized:   map[string]float64{},
		}
		rowCycles := all["ROW"].Breakdown.TotalCycles
		for name, r := range all {
			pt.Cycles[name] = r.Breakdown.TotalCycles
			pt.Normalized[name] = float64(r.Breakdown.TotalCycles) / float64(rowCycles)
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// WriteTable renders the sweep in the paper's series order.
func (r *Fig5Result) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Figure 5 — normalized execution time vs projectivity (%d rows, 64 B rows of 16 x 4 B columns)\n", r.Rows)
	fmt.Fprintf(w, "%-13s %10s %10s %10s   %8s %8s %8s\n", "projectivity", "ROW(cyc)", "COL(cyc)", "RM(cyc)", "ROW", "COL", "RM")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%-13d %10d %10d %10d   %8.3f %8.3f %8.3f\n",
			p.Projectivity, p.Cycles["ROW"], p.Cycles["COL"], p.Cycles["RM"],
			p.Normalized["ROW"], p.Normalized["COL"], p.Normalized["RM"])
	}
}

// CheckShape verifies the paper's qualitative claims and returns the
// violations found (empty = the shape reproduces):
//
//  1. RM outperforms ROW at every projectivity;
//  2. COL outperforms RM at low projectivity (≤ 3);
//  3. RM outperforms COL at high projectivity (≥ 6).
func (r *Fig5Result) CheckShape() []string {
	var bad []string
	for _, p := range r.Points {
		if p.Cycles["RM"] >= p.Cycles["ROW"] {
			bad = append(bad, fmt.Sprintf("projectivity %d: RM (%d) not faster than ROW (%d)", p.Projectivity, p.Cycles["RM"], p.Cycles["ROW"]))
		}
		if p.Projectivity <= 3 && p.Cycles["COL"] >= p.Cycles["RM"] {
			bad = append(bad, fmt.Sprintf("projectivity %d: COL (%d) should beat RM (%d)", p.Projectivity, p.Cycles["COL"], p.Cycles["RM"]))
		}
		if p.Projectivity >= 6 && p.Cycles["RM"] >= p.Cycles["COL"] {
			bad = append(bad, fmt.Sprintf("projectivity %d: RM (%d) should beat COL (%d)", p.Projectivity, p.Cycles["RM"], p.Cycles["COL"]))
		}
	}
	return bad
}
