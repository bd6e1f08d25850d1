package engine

import (
	"errors"

	"rfabric/internal/colstore"
	"rfabric/internal/obs"
)

// ColEngine is the column-at-a-time access path over a materialized
// columnar copy — the paper's COL baseline (§V). Selection runs as
// full-column passes that narrow a row-id vector; consumption then
// reconstructs tuples by reading every consumed column at each qualifying
// row id. That reconstruction is the layout's Achilles' heel: it reads the
// consumed arrays in interleaved row-major order, so once a query touches
// more parallel streams than the prefetcher tracks (> 4 on the paper's
// platform), the gathers degrade to demand misses. As a Source it
// contributes the decomposed layout's addressing and the bitmap-selection
// prepare pass; the scan and consume loops live in the shared pipeline.
type ColEngine struct {
	Store *colstore.Store
	Sys   *System

	// Tracer, when set, receives a span for this execution with leaves
	// that reconcile with the Breakdown. Nil means no tracing overhead.
	Tracer *obs.Tracer

	// ForceScalar is inert: every scan runs on the batch pipeline. The
	// field stays only because the frozen façade benchmark's shadow
	// (hostbench) still sets it; ROADMAP item 4 removes its last user.
	ForceScalar bool

	// scratch is the engine-owned batch workspace, allocated on first
	// execution and reused so steady-state scans allocate nothing
	// per batch.
	scratch *scanScratch
}

// Name implements Source.
func (e *ColEngine) Name() string { return "COL" }

// The columnar copy is derived from a base table; the engine span carries
// no table label of its own.
func (e *ColEngine) tableLabel() string { return "" }

func (e *ColEngine) sysTracer() (*System, *obs.Tracer) { return e.Sys, e.Tracer }

// Execute runs q and returns its result with the modeled cost.
func (e *ColEngine) Execute(q Query) (*Result, error) { return Run(e, q) }

// openScan implements Source: selection happens up front as full-column
// bitmap passes (the prepare hook), leaving the pipeline an explicit row-id
// list (or, without a selection, every row) whose reconstruction touches
// each consumed column per row.
func (e *ColEngine) openScan(q *Query, _ *obs.Span) (*scan, error) {
	if e.Store == nil || e.Sys == nil {
		return nil, errors.New("engine: ColEngine needs a column store and a system")
	}
	sch := e.Store.Schema()
	if err := q.Validate(sch); err != nil {
		return nil, err
	}
	if q.Snapshot != nil {
		// The columnar copy is a point-in-time conversion; it has no
		// version headers. This limitation is part of what the paper's
		// design removes.
		return nil, errors.New("engine: columnar copy does not support MVCC snapshots")
	}

	store := e.Store
	rows := store.NumRows()
	s := &scan{sch: sch, tickPerRow: true}
	sel := q.Selection
	s.prepare = func(pr *pipeRun) ([]int32, error) {
		return colBitmapPasses(pr, e.Sys, s.scratch, store, sch, sel), nil
	}
	// One segment over the dense column arrays: the qualifying row ids, or
	// every row when nothing is selected; every source row was scanned by
	// the selection passes.
	cols := make([]region, sch.NumColumns())
	for c := range cols {
		cols[c] = region{data: store.ColumnData(c), addr: store.ColumnAddr(c), stride: sch.Column(c).Width}
	}
	s.segs = func(pr *pipeRun) segIter {
		return oneShotIter(segment{cols: cols, rows: rows, ids: pr.ids, sourceRows: int64(rows)})
	}
	// Predicates run as bitmap passes outside the program, hence the empty
	// selection; reconstruction touches every consumed column per row.
	if err := s.attachVec(rows, vecSpec{visit: q.consumedColumns(), ch: colVecCharges}, &e.scratch); err != nil {
		return nil, err
	}
	return s, nil
}
