package experiments

import (
	"fmt"
	"io"
	"time"

	"rfabric/internal/colstore"
	"rfabric/internal/engine"
	"rfabric/internal/geometry"
	"rfabric/internal/sql"
	"rfabric/internal/table"
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
	sys, err := engine.NewSystem(opt.System)
	if err != nil {
		return nil, err
	}
	mk := func(name string, sch *geometry.Schema, n int, gen func(*table.Table, int, int64) error, seed int64) (*table.Table, error) {
		tbl, err := table.New(name, sch,
			table.WithCapacity(n),
			table.WithBaseAddr(sys.Arena.Alloc(int64(n*sch.RowBytes()))))
		if err != nil {
			return nil, err
		}
		return tbl, gen(tbl, n, seed)
	}
	li, err := mk("lineitem", tpch.LineitemSchema(), rows, tpch.Generate, opt.Seed)
	if err != nil {
		return nil, err
	}
	nOrders := tpch.OrdersFor(rows)
	ord, err := mk("orders", tpch.OrdersSchema(), nOrders, tpch.GenerateOrders, opt.Seed+1)
	if err != nil {
		return nil, err
	}
	lookup := func(name string) (*geometry.Schema, error) {
		switch name {
		case "lineitem":
			return li.Schema(), nil
		case "orders":
			return ord.Schema(), nil
		}
		return nil, fmt.Errorf("join experiment: unknown table %q", name)
	}

	st, err := sql.Parse(tpch.Q3SQL)
	if err != nil {
		return nil, err
	}
	root, err := sql.LowerCatalog(st, lookup)
	if err != nil {
		return nil, err
	}
	jp, _, err := engine.FromJoinPlan(root, lookup)
	if err != nil {
		return nil, err
	}
	byName := func(name string) *table.Table {
		if name == "orders" {
			return ord
		}
		return li
	}

	res := &JoinResult{Rows: rows, OrdersRows: nOrders, Cycles: map[string]uint64{}}
	var baseline *engine.Result
	runSerial := func(label string, probe engine.Source, builds []engine.Source) error {
		sys.ResetState()
		r, err := (&engine.JoinExec{Plan: jp, Probe: probe, Builds: builds}).Execute()
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

	rowSrc := func(t *table.Table) engine.Source {
		return &engine.RowEngine{Tbl: t, Sys: sys}
	}
	rmSrc := func(t *table.Table) engine.Source {
		return &engine.RMEngine{Tbl: t, Sys: sys}
	}
	if err := runSerial("row", rowSrc(byName(jp.Probe.Table)), buildSources(jp, byName, rowSrc)); err != nil {
		return nil, err
	}
	if err := runSerial("rm", rmSrc(byName(jp.Probe.Table)), buildSources(jp, byName, rmSrc)); err != nil {
		return nil, err
	}
	colSrc := func(t *table.Table) engine.Source {
		store, err := colstore.FromTable(t, sys.Arena)
		if err != nil {
			panic(err) // arena exhaustion at experiment scale is a setup bug
		}
		return &engine.ColEngine{Store: store, Sys: sys}
	}
	if err := runSerial("col", colSrc(byName(jp.Probe.Table)), buildSources(jp, byName, colSrc)); err != nil {
		return nil, err
	}

	var base uint64
	for _, w := range workers {
		sys.ResetState()
		start := time.Now()
		r, err := (&engine.ParallelJoinExec{
			Plan:     jp,
			ProbeTbl: byName(jp.Probe.Table),
			Sys:      sys,
			Par:      engine.ParallelConfig{Workers: w},
			Builds:   buildSources(jp, byName, rmSrc),
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

// buildSources makes one source per join stage, in stage order.
func buildSources(jp *engine.JoinPlan, byName func(string) *table.Table, mk func(*table.Table) engine.Source) []engine.Source {
	out := make([]engine.Source, len(jp.Stages))
	for i, stg := range jp.Stages {
		out[i] = mk(byName(stg.Side.Table))
	}
	return out
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
