package experiments

import (
	"fmt"
	"io"

	"rfabric/internal/plan"
	"rfabric/internal/tpch"
)

// TPCHQuery selects which practical query a Figure 7 run executes.
type TPCHQuery int

// The two queries of Figure 7.
const (
	Q1 TPCHQuery = iota
	Q6
)

// String returns the query label.
func (q TPCHQuery) String() string {
	if q == Q1 {
		return "Q1"
	}
	return "Q6"
}

// SQL returns the query text.
func (q TPCHQuery) SQL() string {
	if q == Q1 {
		return tpch.Q1SQL
	}
	return tpch.Q6SQL
}

// Fig7Point is one data size of the Figure 7 sweep.
type Fig7Point struct {
	TargetBytes int // bytes of the query's needed columns (paper's x label)
	TableBytes  int // total base-table bytes
	Rows        int
	Cycles      map[string]uint64
	RowsPassed  int64
}

// Fig7Result is the full sweep for one query.
type Fig7Result struct {
	Query  TPCHQuery
	Points []Fig7Point
}

// Figure7 reproduces the practical-query experiment (§V "RM Shows Stable
// Performance for Practical Queries"): TPC-H Q1 or Q6 over lineitem tables
// sized so the query's target columns occupy each entry of opt.Fig7TargetMB.
func Figure7(opt Options, which TPCHQuery) (*Fig7Result, error) {
	// The query's scanned columns size every point, so lower it once
	// against an empty lineitem.
	sizing, err := newLab(opt.System)
	if err != nil {
		return nil, err
	}
	if _, err := sizing.place("lineitem", tpch.LineitemSchema(), 0, tpch.Generate, opt.Seed); err != nil {
		return nil, err
	}
	root, err := sizing.lower(which.SQL())
	if err != nil {
		return nil, err
	}
	res := &Fig7Result{Query: which}
	for _, mb := range opt.Fig7TargetMB {
		target := mb << 20
		pt, err := runFig7Point(opt, root, RowsForTargetBytes(root, target), target)
		if err != nil {
			return nil, fmt.Errorf("figure 7 %s target %d MiB: %w", which, mb, err)
		}
		res.Points = append(res.Points, *pt)
	}
	return res, nil
}

// TargetColumnBytes returns the bytes per lineitem row the query scans —
// the paper's x-axis unit in Figure 7 ("target column size").
func TargetColumnBytes(root *plan.Node) int {
	sch := tpch.LineitemSchema()
	total := 0
	for _, c := range root.Scan().Cols {
		total += sch.Column(c).Width
	}
	return total
}

// RowsForTargetBytes returns the row count that makes the query's target
// columns occupy targetBytes.
func RowsForTargetBytes(root *plan.Node, targetBytes int) int {
	per := TargetColumnBytes(root)
	if per == 0 {
		return 0
	}
	return targetBytes / per
}

func runFig7Point(opt Options, root *plan.Node, rows, target int) (*Fig7Point, error) {
	l, err := newLab(opt.System)
	if err != nil {
		return nil, err
	}
	tbl, err := l.place("lineitem", tpch.LineitemSchema(), rows, tpch.Generate, opt.Seed)
	if err != nil {
		return nil, err
	}
	if err := l.columnar(); err != nil {
		return nil, err
	}
	all, err := l.runAll(root)
	if err != nil {
		return nil, err
	}
	return &Fig7Point{
		TargetBytes: target,
		TableBytes:  tbl.SizeBytes(),
		Rows:        rows,
		Cycles:      cyclesOf(all),
		RowsPassed:  all["RM"].RowsPassed,
	}, nil
}

// WriteTable renders the sweep like the paper's series.
func (r *Fig7Result) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Figure 7 (%s) — execution cycles vs data size\n", r.Query)
	fmt.Fprintf(w, "%-10s %-10s %-10s %14s %14s %14s %10s\n",
		"target", "table", "rows", "ROW(cyc)", "COL(cyc)", "RM(cyc)", "passed")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%-10s %-10s %-10d %14d %14d %14d %10d\n",
			fmtMB(p.TargetBytes), fmtMB(p.TableBytes), p.Rows,
			p.Cycles["ROW"], p.Cycles["COL"], p.Cycles["RM"], p.RowsPassed)
	}
}

func fmtMB(b int) string {
	return fmt.Sprintf("%.0fMB", float64(b)/(1<<20))
}

// CheckShape verifies the paper's qualitative claims.
//
// Q6 (data-movement-bound): RM is fastest at every size, ROW slowest.
// Q1 (CPU-bound): the three engines stay within a 2x band, and RM is never
// slower than ROW.
func (r *Fig7Result) CheckShape() []string {
	var bad []string
	for _, p := range r.Points {
		row, col, rm := p.Cycles["ROW"], p.Cycles["COL"], p.Cycles["RM"]
		switch r.Query {
		case Q6:
			if rm >= col {
				bad = append(bad, fmt.Sprintf("%s target %s: RM (%d) not faster than COL (%d)", r.Query, fmtMB(p.TargetBytes), rm, col))
			}
			if col >= row {
				bad = append(bad, fmt.Sprintf("%s target %s: COL (%d) not faster than ROW (%d)", r.Query, fmtMB(p.TargetBytes), col, row))
			}
		case Q1:
			if rm > row {
				bad = append(bad, fmt.Sprintf("%s target %s: RM (%d) slower than ROW (%d)", r.Query, fmtMB(p.TargetBytes), rm, row))
			}
			hi, lo := row, row
			for _, c := range []uint64{col, rm} {
				if c > hi {
					hi = c
				}
				if c < lo {
					lo = c
				}
			}
			if float64(hi)/float64(lo) > 2.0 {
				bad = append(bad, fmt.Sprintf("%s target %s: engines spread %.2fx exceeds CPU-bound band", r.Query, fmtMB(p.TargetBytes), float64(hi)/float64(lo)))
			}
		}
	}
	return bad
}
