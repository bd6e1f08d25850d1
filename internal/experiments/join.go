package experiments

import (
	"fmt"
	"io"
	"time"

	"rfabric/internal/engine"
	"rfabric/internal/tpch"
)

// JoinParallelPoint is one worker count of the parallel join sweep.
type JoinParallelPoint struct {
	Workers   int
	Cycles    uint64
	WallNanos int64
	Speedup   float64 // modeled, vs the 1-worker run
}

// JoinResult is the hash-join experiment: the Q3-class lineitem ⋈ orders
// query lowered from SQL and executed through every serial access path plus
// the morsel-parallel executor. All paths must produce the same groups; the
// cycle map records how the layouts compare when every build and probe byte
// is charged through the memory hierarchy.
type JoinResult struct {
	Rows       int // lineitem (probe) rows
	OrdersRows int // orders (build) rows
	Groups     int
	Cycles     map[string]uint64 // row, rm, col — serial JoinExec per source
	Parallel   []JoinParallelPoint
}

// JoinQ3 builds lineitem and orders in one simulated system, lowers
// tpch.Q3SQL through the catalog lowerer, and runs the resulting JoinPlan
// with ROW, RM, and COL sources serially and RM sources under the
// morsel-parallel executor for each entry of workers.
func JoinQ3(opt Options, rows int, workers []int) (*JoinResult, error) {
	l, err := tpchLab(opt, rows)
	if err != nil {
		return nil, err
	}
	root, err := l.lower(tpch.Q3SQL)
	if err != nil {
		return nil, err
	}

	res := &JoinResult{Rows: rows, OrdersRows: tpch.OrdersFor(rows), Cycles: map[string]uint64{}}
	var baseline *engine.Result
	serial := func(label string, path access) error {
		r, err := l.run(root, path)
		if err != nil {
			return fmt.Errorf("join %s: %w", label, err)
		}
		if baseline == nil {
			baseline = r
			res.Groups = len(r.Groups)
		} else if err := baseline.EquivalentTo(r, 1e-9); err != nil {
			return fmt.Errorf("join %s diverged: %w", label, err)
		}
		res.Cycles[label] = r.Breakdown.TotalCycles
		return nil
	}
	if err := serial("row", l.row); err != nil {
		return nil, err
	}
	if err := serial("rm", l.rm); err != nil {
		return nil, err
	}
	// The columnar copies go in the arena after the ROW and RM runs'
	// delivery windows; the modeled cycles depend on that order.
	if err := l.columnar(); err != nil {
		return nil, err
	}
	if err := serial("col", l.col); err != nil {
		return nil, err
	}

	jp, _, err := engine.FromJoinPlan(root, l.schema)
	if err != nil {
		return nil, err
	}
	var base uint64
	for _, w := range workers {
		l.sys.ResetState()
		start := time.Now()
		r, err := (&engine.ParallelJoinExec{
			Plan:     jp,
			ProbeTbl: l.table(jp.Probe.Table),
			Sys:      l.sys,
			Par:      engine.ParallelConfig{Workers: w},
			Builds:   l.builds(jp, l.rm),
		}).Execute()
		if err != nil {
			return nil, fmt.Errorf("join par %d workers: %w", w, err)
		}
		wall := time.Since(start)
		if err := baseline.EquivalentTo(r, 1e-9); err != nil {
			return nil, fmt.Errorf("join par %d workers diverged: %w", w, err)
		}
		if base == 0 {
			base = r.Breakdown.TotalCycles
		}
		res.Parallel = append(res.Parallel, JoinParallelPoint{
			Workers:   w,
			Cycles:    r.Breakdown.TotalCycles,
			WallNanos: wall.Nanoseconds(),
			Speedup:   float64(base) / float64(r.Breakdown.TotalCycles),
		})
	}
	return res, nil
}

// tpchLab places lineitem and its orders on a fresh system.
func tpchLab(opt Options, rows int) (*lab, error) {
	l, err := newLab(opt.System)
	if err != nil {
		return nil, err
	}
	if _, err := l.place("lineitem", tpch.LineitemSchema(), rows, tpch.Generate, opt.Seed); err != nil {
		return nil, err
	}
	if _, err := l.place("orders", tpch.OrdersSchema(), tpch.OrdersFor(rows), tpch.GenerateOrders, opt.Seed+1); err != nil {
		return nil, err
	}
	return l, nil
}

// WriteTable renders the experiment.
func (r *JoinResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Hash join — Q3-class lineitem ⋈ orders, %d ⋈ %d rows, %d groups\n",
		r.Rows, r.OrdersRows, r.Groups)
	fmt.Fprintf(w, "%-8s %14s\n", "source", "cycles")
	for _, k := range []string{"row", "rm", "col"} {
		fmt.Fprintf(w, "%-8s %14d\n", k, r.Cycles[k])
	}
	fmt.Fprintf(w, "%-8s %14s %10s %12s\n", "workers", "cycles", "speedup", "wall(us)")
	for _, p := range r.Parallel {
		fmt.Fprintf(w, "%-8d %14d %9.2fx %12.1f\n",
			p.Workers, p.Cycles, p.Speedup, float64(p.WallNanos)/1e3)
	}
}

// CheckShape verifies the join claims: every path agreed (enforced during
// the run), the join produced work, and the modeled parallel makespan never
// grows as workers are added.
func (r *JoinResult) CheckShape() []string {
	var bad []string
	if r.Groups == 0 {
		bad = append(bad, "join: zero result groups — the build side never matched")
	}
	for i := 1; i < len(r.Parallel); i++ {
		prev, cur := r.Parallel[i-1], r.Parallel[i]
		if cur.Workers > prev.Workers && cur.Cycles > prev.Cycles {
			bad = append(bad, fmt.Sprintf("join: cycles grew from %d to %d going from %d to %d workers",
				prev.Cycles, cur.Cycles, prev.Workers, cur.Workers))
		}
	}
	return bad
}
