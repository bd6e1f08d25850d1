package engine

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"rfabric/internal/expr"
	"rfabric/internal/obs"
	"rfabric/internal/table"
	"rfabric/internal/vec"
)

// DefaultMorselRows is the morsel size when ParallelConfig leaves it zero:
// large enough that per-morsel fixed costs (view configuration, merge)
// amortize, small enough that an 8-worker run on laptop-scale tables load
// balances.
const DefaultMorselRows = 8192

// mergeCyclesPerPartial is the coordinator's modeled cost to fold one
// partial result into the final one.
const mergeCyclesPerPartial = 200

// ParallelConfig parameterizes the morsel-parallel executor. The zero value
// means "defaults": GOMAXPROCS workers, DefaultMorselRows-row morsels.
type ParallelConfig struct {
	// Workers is the goroutine count; 0 or negative means
	// runtime.GOMAXPROCS(0).
	Workers int
	// MorselRows is the row-range granularity workers pull; 0 or negative
	// means DefaultMorselRows. Morsel boundaries depend only on this value,
	// never on Workers, which is what makes results deterministic across
	// worker counts.
	MorselRows int
}

func (c ParallelConfig) normalized() ParallelConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MorselRows <= 0 {
		c.MorselRows = DefaultMorselRows
	}
	return c
}

// ParallelEngine executes a query morsel-at-a-time: the table's row range is
// split into fixed-size morsels, workers pull morsels from a shared counter
// and run each on the RM path of a worker-private System clone, and the
// coordinator merges the partial results in morsel order.
//
// Determinism: morsel boundaries depend only on MorselRows, every morsel
// runs on an identically-initialized machine clone, and the merge folds
// partials in morsel order — so the result (rows, aggregates, groups,
// checksum, and the modeled breakdown) is identical for any Workers value.
// Only wall-clock time changes with Workers.
//
// Race-cleanness: each goroutine clones the parent System per morsel and
// never shares simulated hardware; the parent System and table are only
// read. Callers that mutate the table concurrently must serialize against
// Execute (e.g. via mvcc.Manager.ReadView).
type ParallelEngine struct {
	Tbl *table.Table
	Sys *System
	Par ParallelConfig

	// Tracer, when set, receives a span whose schedule/merge leaves
	// reconcile with the Breakdown; per-morsel sub-traces hang under a
	// Detail subtree (their modeled time overlaps the makespan). Each
	// morsel gets its own private tracer, adopted in morsel order after
	// the workers join, so tracing never perturbs determinism.
	Tracer *obs.Tracer
}

// Name implements Executor.
func (e *ParallelEngine) Name() string { return "PAR" }

// Execute runs q across morsels and returns the merged result.
func (e *ParallelEngine) Execute(q Query) (*Result, error) {
	if e.Tbl == nil || e.Sys == nil {
		return nil, errors.New("engine: ParallelEngine needs a table and a system")
	}
	if err := q.Validate(e.Tbl.Schema()); err != nil {
		return nil, err
	}
	if q.Snapshot != nil && !e.Tbl.HasMVCC() {
		return nil, fmt.Errorf("engine: snapshot query over table %q without MVCC", e.Tbl.Name())
	}

	par := e.Par.normalized()
	n, workers := par.split(e.Tbl.NumRows())
	sp := beginEngineSpan(e.Tracer, e.Name()+".execute", e.Name(), e.Tbl.Name())
	defer e.Tracer.End()
	tracers := newPartTracers(sp, n)

	res, parts, err := Gather(e.Name(), q, n, workers, func(i int) (*Result, error) {
		slice, sys, err := morsel(e.Tbl, e.Sys, i, par.MorselRows)
		if err != nil {
			return nil, err
		}
		eng := &RMEngine{Tbl: slice, Sys: sys, Tracer: tracers.at(i)}
		res, err := RunPartial(eng, q)
		if err != nil {
			return nil, err
		}
		res.MorselHW = sys.HW()
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	finishParallelSpan(e.Tracer, sp, tracers, parts, workers, par.MorselRows, res.Breakdown.TotalCycles, res.Breakdown.TotalCycles)
	return res, nil
}

// split returns how many morsels a rows-row table splits into (at least
// one: an empty morsel gives the empty result its shape) and how many
// workers that many morsels can keep busy.
func (c ParallelConfig) split(rows int) (morsels, workers int) {
	morsels = max((rows+c.MorselRows-1)/c.MorselRows, 1)
	return morsels, min(c.Workers, morsels)
}

// Gather is the scatter/gather core of every partitioned executor: PAR
// scans and joins over morsels, and sharded tables over the shards a query
// touches. Workers pull partition indexes 0..n-1 off a shared counter and
// call run on each; workers of zero or less means runtime.GOMAXPROCS(0).
// run(i) must drive only partition i's own state (a System clone or a
// shard's node), which is what keeps the pool race-clean, and return a
// partial: a RunPartial result, whose aggregation is left unfinished. The
// partials then fold in partition order through mergePartials, so the
// merged result and its modeled Breakdown are identical for any worker
// count. Gather returns the merged result and the partials.
func Gather(name string, q Query, n, workers int, run func(i int) (*Result, error)) (*Result, []*Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	parts := make([]*Result, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				parts[i], errs[i] = run(i)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("engine: partition %d: %w", i, err)
		}
	}
	res, err := mergePartials(name, q, parts, workers)
	if err != nil {
		return nil, nil, err
	}
	return res, parts, nil
}

// morsel returns morsel i of tbl, rows [i*morselRows, (i+1)*morselRows)
// clamped to the table, and a fresh clone of sys to run it on. Cloning per
// morsel (not per worker) keeps the partial independent of which worker ran
// it and how many morsels that worker had already run, which the
// determinism guarantee needs: arena allocations for delivery windows would
// otherwise drift with scheduling.
func morsel(tbl *table.Table, sys *System, i, morselRows int) (*table.Table, *System, error) {
	rows := tbl.NumRows()
	slice, err := tbl.Slice(min(i*morselRows, rows), min((i+1)*morselRows, rows))
	if err != nil {
		return nil, nil, err
	}
	clone, err := sys.Clone()
	if err != nil {
		return nil, nil, err
	}
	return slice, clone, nil
}

// partTracers holds one private tracer per morsel of a traced parallel run;
// it is nil when the run is untraced. Each worker writes only its own
// morsel's tracer, and finishParallelSpan adopts the sub-roots in morsel
// order after the workers join, so tracing never perturbs determinism.
type partTracers []*obs.Tracer

func newPartTracers(sp *obs.Span, n int) partTracers {
	if sp == nil {
		return nil
	}
	ts := make(partTracers, n)
	for i := range ts {
		ts[i] = obs.NewTracer(morselSpanName(i))
	}
	return ts
}

// at returns morsel i's tracer, nil when the run is untraced.
func (ts partTracers) at(i int) *obs.Tracer {
	if ts == nil {
		return nil
	}
	return ts[i]
}

// finishParallelSpan lays out a traced parallel run under sp: the
// schedule.makespan and merge leaves, which reconcile with total (the
// morsels' merged TotalCycles), the worker and morsel attributes, and a
// Detail subtree adopting each morsel's sub-trace in morsel order; the
// sub-traces' modeled time overlaps the makespan rather than adding to it.
// Replaying the deterministic list schedule places each morsel on a worker
// lane, which feeds the Chrome-trace worker lanes and the timeline's
// busy-worker series. Morsels ran on System clones, which the timeline does
// not hook, so the coordinator then drives the clock through `through`
// itself. Nil-safe on sp.
func finishParallelSpan(tr *obs.Tracer, sp *obs.Span, tracers partTracers, parts []*Result, workers, morselRows int, total, through uint64) {
	if sp == nil {
		return
	}
	mergeCharge := uint64(len(parts)) * mergeCyclesPerPartial
	sp.Leaf("schedule.makespan", total-mergeCharge, 0)
	sp.Leaf("merge", mergeCharge, 0)
	sp.SetAttr("workers", strconv.Itoa(workers))
	sp.SetAttr("morsels", strconv.Itoa(len(parts)))
	sp.SetAttr("morsel_rows", strconv.Itoa(morselRows))
	detail := sp.AddChild("morsels")
	detail.Detail = true
	partTotals := make([]uint64, len(parts))
	for i, p := range parts {
		partTotals[i] = p.Breakdown.TotalCycles
	}
	workerOf, starts, _ := scheduleAssignments(partTotals, workers)
	tl := tr.Timeline()
	for i, t := range tracers {
		root := t.Root()
		root.SetAttr("worker", strconv.Itoa(workerOf[i]))
		root.SetAttr("start_cycles", strconv.FormatUint(starts[i], 10))
		detail.Adopt(root)
		tl.AddWorkerSlice(workerOf[i], morselSpanName(i), starts[i], partTotals[i])
	}
	tl.TickThrough(through)
}

// mergePartials folds the partitions' results in partition order. Row
// counts and the checksum add commutatively. Aggregates merge as the states
// the partitions' folds left (Result.part), never as finished values: per
// term when ungrouped (vec.AggState.Merge), else on one group table that
// finds each partition's groups by their own key encodings. The merged
// states then finish once under q.Sinks, so only the rows the statement
// returns are boxed (see finishAggs). The modeled time is
// the makespan of scheduling the partitions on `workers` executors plus a
// per-partial merge charge; the clones' hardware counters sum in partition
// order.
func mergePartials(name string, q Query, parts []*Result, workers int) (*Result, error) {
	out := &Result{Engine: name, Morsels: len(parts)}
	var m aggOut
	switch {
	case len(q.Aggregates) == 0:
	case len(q.GroupBy) > 0:
		m.groups = new(vec.GroupTable)
		kinds := make([]expr.AggKind, len(q.Aggregates))
		for i, t := range q.Aggregates {
			kinds[i] = t.Kind
		}
		m.groups.Reset(kinds, nil) // Merge takes the partitions' key columns
	default:
		m.states = make([]vec.AggState, len(q.Aggregates))
	}

	partTotals := make([]uint64, len(parts))
	for i, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("engine: missing partial result for partition %d", i)
		}
		out.RowsScanned += p.RowsScanned
		out.RowsPassed += p.RowsPassed
		out.Checksum += p.Checksum
		out.MorselHW = out.MorselHW.Add(p.MorselHW)
		b := p.Breakdown
		out.Breakdown.ComputeCycles += b.ComputeCycles
		out.Breakdown.MemDemandCycles += b.MemDemandCycles
		out.Breakdown.ProducerCycles += b.ProducerCycles
		out.Breakdown.BytesFromDRAM += b.BytesFromDRAM
		out.Breakdown.BytesToCPU += b.BytesToCPU
		out.Breakdown.PipelineCycles += b.PipelineCycles
		partTotals[i] = b.TotalCycles
		if len(q.Aggregates) == 0 {
			continue
		}
		if p.part == nil {
			return nil, fmt.Errorf("engine: partition %d returned no aggregate state (run it with RunPartial)", i)
		}
		m.merge(p.part)
	}
	out.Breakdown.TotalCycles = scheduleCycles(partTotals, workers) +
		uint64(len(parts))*mergeCyclesPerPartial
	out.finishAggs(m, q, false)
	return out, nil
}

// scheduleCycles models running parts on `workers` parallel executors with
// greedy list scheduling: each part, in submission order, goes to the
// least-loaded worker, and the result is the makespan (the busiest worker's
// total). With one worker it degenerates to the sum; with workers >= parts
// it is the largest part. This is how the cost model rewards parallelism:
// deterministic in the parts and worker count, independent of actual
// goroutine interleaving.
func scheduleCycles(parts []uint64, workers int) uint64 {
	_, _, makespan := scheduleAssignments(parts, workers)
	return makespan
}

// scheduleAssignments runs the same greedy list schedule as scheduleCycles
// and additionally reports the placement: workerOf[i] is the worker part i
// ran on and starts[i] its start offset on that worker's lane. The timeline
// sampler and the Chrome-trace exporter use the placement to reconstruct
// per-worker busy/idle state deterministically.
func scheduleAssignments(parts []uint64, workers int) (workerOf []int, starts []uint64, makespan uint64) {
	if len(parts) == 0 {
		return nil, nil, 0
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(parts) {
		workers = len(parts)
	}
	load := make([]uint64, workers)
	workerOf = make([]int, len(parts))
	starts = make([]uint64, len(parts))
	for pi, p := range parts {
		mi := 0
		for i := 1; i < workers; i++ {
			if load[i] < load[mi] {
				mi = i
			}
		}
		workerOf[pi] = mi
		starts[pi] = load[mi]
		load[mi] += p
	}
	for _, l := range load {
		if l > makespan {
			makespan = l
		}
	}
	return workerOf, starts, makespan
}
