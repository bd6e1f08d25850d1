package experiments

import (
	"fmt"
	"io"
	"time"

	"rfabric/internal/engine"
	"rfabric/internal/shard"
	"rfabric/internal/table"
	"rfabric/internal/tpch"
)

// ParallelPoint is one worker count of the parallel-speedup sweep.
type ParallelPoint struct {
	Workers    int
	Cycles     uint64 // modeled makespan + merge cost
	WallNanos  int64  // wall-clock time of the scatter/gather run
	RowsPassed int64
	Checksum   uint64
	Speedup    float64 // modeled, vs the 1-worker run
}

// ParallelResult is the morsel/shard parallelism experiment: TPC-H Q6 over
// a lineitem table hash-free range-sharded on l_orderkey, executed with a
// growing coordinator worker pool. The logical result must not move at all;
// the modeled makespan must fall toward the slowest shard.
type ParallelResult struct {
	Shards int
	Rows   int
	Points []ParallelPoint
}

// ParallelSpeedup runs Q6 over `rows` lineitem rows split across `shards`
// equal key ranges, once per entry of `workers`. Q6 carries no l_orderkey
// predicate, so every shard is touched and the scatter phase has the full
// fan-out to schedule.
func ParallelSpeedup(opt Options, shards, rows int, workers []int) (*ParallelResult, error) {
	if shards < 2 {
		return nil, fmt.Errorf("parallel speedup: need at least 2 shards, got %d", shards)
	}
	// Reference rows come from the standard generator; the sharded table
	// routes them by key range. Keys run 1..rows/4+1 (four lines per order).
	l, err := newLab(opt.System)
	if err != nil {
		return nil, err
	}
	ref, err := l.place("lineitem", tpch.LineitemSchema(), rows, tpch.Generate, opt.Seed)
	if err != nil {
		return nil, err
	}
	maxKey := int64(rows/4 + 1)
	bounds := make([]int64, shards-1)
	for i := range bounds {
		bounds[i] = maxKey * int64(i+1) / int64(shards)
	}
	st, err := shard.New("lineitem", tpch.LineitemSchema(), 0, bounds, rows, opt.System)
	if err != nil {
		return nil, err
	}
	for r := 0; r < rows; r++ {
		row, err := table.DecodeRow(ref.Schema(), ref.RowPayload(r))
		if err != nil {
			return nil, err
		}
		if err := st.Insert(row...); err != nil {
			return nil, err
		}
	}

	res := &ParallelResult{Shards: shards, Rows: rows}
	var base *engine.Result
	for _, w := range workers {
		st.Workers = w
		start := time.Now()
		r, err := st.Execute(tpch.Q6SQL)
		if err != nil {
			return nil, fmt.Errorf("parallel speedup: %d workers: %w", w, err)
		}
		wall := time.Since(start)
		if base == nil {
			base = r
		} else if r.RowsPassed != base.RowsPassed || r.Checksum != base.Checksum {
			return nil, fmt.Errorf("parallel speedup: %d workers changed the result: rows %d/%d checksum %#x/%#x",
				w, r.RowsPassed, base.RowsPassed, r.Checksum, base.Checksum)
		}
		res.Points = append(res.Points, ParallelPoint{
			Workers:    w,
			Cycles:     r.Breakdown.TotalCycles,
			WallNanos:  wall.Nanoseconds(),
			RowsPassed: r.RowsPassed,
			Checksum:   r.Checksum,
			Speedup:    float64(base.Breakdown.TotalCycles) / float64(r.Breakdown.TotalCycles),
		})
	}
	return res, nil
}

// WriteTable renders the sweep.
func (r *ParallelResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Parallel speedup — TPC-H Q6, %d rows over %d shards\n", r.Rows, r.Shards)
	fmt.Fprintf(w, "%-8s %14s %10s %12s %10s %18s\n",
		"workers", "cycles", "speedup", "wall(us)", "passed", "checksum")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%-8d %14d %9.2fx %12.1f %10d %#18x\n",
			p.Workers, p.Cycles, p.Speedup, float64(p.WallNanos)/1e3, p.RowsPassed, p.Checksum)
	}
}

// CheckShape verifies the parallelism claims: the result is bit-identical
// across worker counts (enforced during the run) and the modeled makespan
// never grows as workers are added.
func (r *ParallelResult) CheckShape() []string {
	var bad []string
	for i := 1; i < len(r.Points); i++ {
		prev, cur := r.Points[i-1], r.Points[i]
		if cur.Workers > prev.Workers && cur.Cycles > prev.Cycles {
			bad = append(bad, fmt.Sprintf("parallel: cycles grew from %d to %d going from %d to %d workers",
				prev.Cycles, cur.Cycles, prev.Workers, cur.Workers))
		}
	}
	return bad
}
