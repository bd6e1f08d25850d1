package experiments

import (
	"fmt"
	"io"
)

// fig6Cols is the schema width of the Figure 6 microbenchmark: wide enough
// for 10 projected plus 10 selection columns with no overlap.
const fig6Cols = 20

// Fig6Result is the full projection×selection grid. Indices are
// [selection-1][projection-1]; values are speedups of RM over the named
// baseline (baseline cycles / RM cycles, > 1 means RM is faster).
type Fig6Result struct {
	Rows       int
	VsRow      [10][10]float64
	VsCol      [10][10]float64
	CyclesRow  [10][10]uint64
	CyclesCol  [10][10]uint64
	CyclesRM   [10][10]uint64
	PassedRows int64
}

// Figure6 reproduces the projection-selection grid (§V "RM Offers Optimal
// Projection-Selection Queries"): queries project 1–10 columns and carry
// 1–10 single-column predicates. The predicates are satisfied by every row —
// the grid measures access-path cost as a function of how many columns a
// query touches, not selectivity.
func Figure6(opt Options) (*Fig6Result, error) {
	l, err := microLab(opt.System, fig6Cols, opt.MicroRows, opt.Seed)
	if err != nil {
		return nil, err
	}
	res := &Fig6Result{Rows: opt.MicroRows}
	for s := 1; s <= 10; s++ {
		for p := 1; p <= 10; p++ {
			root, err := l.lower(microSQL(seq(0, p), seq(10, s)))
			if err != nil {
				return nil, err
			}
			all, err := l.runAll(root)
			if err != nil {
				return nil, fmt.Errorf("figure 6 p=%d s=%d: %w", p, s, err)
			}
			res.PassedRows = all["RM"].RowsPassed
			rm := all["RM"].Breakdown.TotalCycles
			res.CyclesRow[s-1][p-1] = all["ROW"].Breakdown.TotalCycles
			res.CyclesCol[s-1][p-1] = all["COL"].Breakdown.TotalCycles
			res.CyclesRM[s-1][p-1] = rm
			res.VsRow[s-1][p-1] = float64(all["ROW"].Breakdown.TotalCycles) / float64(rm)
			res.VsCol[s-1][p-1] = float64(all["COL"].Breakdown.TotalCycles) / float64(rm)
		}
	}
	return res, nil
}

// WriteTable renders both heatmaps in the paper's orientation (selection
// count on the y-axis growing upward, projection count on the x-axis).
func (r *Fig6Result) WriteTable(w io.Writer) {
	writeGrid(w, "Figure 6a — speedup of RM vs ROW", &r.VsRow, r.Rows)
	fmt.Fprintln(w)
	writeGrid(w, "Figure 6b — speedup of RM vs COL", &r.VsCol, r.Rows)
}

func writeGrid(w io.Writer, title string, g *[10][10]float64, rows int) {
	fmt.Fprintf(w, "%s (%d rows; >1 means RM faster)\n", title, rows)
	fmt.Fprintf(w, "%5s", "sel\\p")
	for p := 1; p <= 10; p++ {
		fmt.Fprintf(w, "%6d", p)
	}
	fmt.Fprintln(w)
	for s := 10; s >= 1; s-- {
		fmt.Fprintf(w, "%5d", s)
		for p := 1; p <= 10; p++ {
			fmt.Fprintf(w, "%6.2f", g[s-1][p-1])
		}
		fmt.Fprintln(w)
	}
}

// CheckShape verifies the paper's qualitative claims:
//
//  1. RM beats ROW in every cell (Fig. 6a is uniformly > 1);
//  2. COL beats RM when the total touched columns are few (cell 1,1 < 1);
//  3. RM beats COL when many columns are touched (cell 10,10 > 1).
func (r *Fig6Result) CheckShape() []string {
	var bad []string
	for s := 1; s <= 10; s++ {
		for p := 1; p <= 10; p++ {
			if r.VsRow[s-1][p-1] <= 1 {
				bad = append(bad, fmt.Sprintf("p=%d s=%d: RM/ROW speedup %.3f <= 1", p, s, r.VsRow[s-1][p-1]))
			}
		}
	}
	if r.VsCol[0][0] >= 1 {
		bad = append(bad, fmt.Sprintf("p=1 s=1: COL should beat RM, speedup %.3f", r.VsCol[0][0]))
	}
	if r.VsCol[9][9] <= 1 {
		bad = append(bad, fmt.Sprintf("p=10 s=10: RM should beat COL, speedup %.3f", r.VsCol[9][9]))
	}
	return bad
}
