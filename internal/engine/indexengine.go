package engine

import (
	"errors"
	"fmt"

	"rfabric/internal/expr"
	"rfabric/internal/index"
	"rfabric/internal/obs"
	"rfabric/internal/plan"
	"rfabric/internal/table"
)

// IndexEngine is the access path for queries whose selection pins the
// indexed column: the B+tree yields candidate rows, the remaining
// predicates and the projection are evaluated row-wise on just those rows.
// This is the paper's residual role for indexes (§III-A) turned into an
// access path the constructive optimizer can price against the fabric. As
// a Source it contributes the tree descent (the prepare hook) and the
// candidate-row addressing; the scan and consume loops live in the shared
// pipeline.
type IndexEngine struct {
	Tbl *table.Table
	Sys *System
	Idx *index.BTree

	// Tracer, when set, receives a span for this execution with leaves
	// that reconcile with the Breakdown. Nil means no tracing overhead.
	Tracer *obs.Tracer

	// scratch is the engine-owned batch workspace, allocated on first
	// execution and reused so steady-state scans allocate nothing per batch.
	scratch *scanScratch
}

// Name implements Source.
func (e *IndexEngine) Name() string { return "IDX" }

func (e *IndexEngine) tableLabel() string {
	if e.Tbl == nil {
		return ""
	}
	return e.Tbl.Name()
}

func (e *IndexEngine) sysTracer() (*System, *obs.Tracer) { return e.Sys, e.Tracer }

// IndexApplicable reports whether a selection constrains the indexed
// column — the precondition for routing a scan through IndexEngine. The DB
// façade uses it to decide per join side whether the index path applies or
// the side must fall back to the base heap.
func IndexApplicable(idx *index.BTree, sel expr.Conjunction) bool {
	if idx == nil {
		return false
	}
	_, _, ok := sel.KeyRange(idx.Column())
	return ok
}

// Execute runs q through the index. It fails when the selection does not
// constrain the indexed column — the optimizer never routes such queries
// here.
func (e *IndexEngine) Execute(q Query) (*Result, error) { return Run(e, q) }

// openScan implements Source: descend the tree inside the measured window
// (the prepare hook), then visit the candidate rows through the base
// heap's addressing, re-checking every predicate for correctness. The
// candidates form one id-list segment over the strided heap, which the
// batch executor gathers batch by batch.
func (e *IndexEngine) openScan(q *Query, _ *obs.Span) (*scan, error) {
	if e.Tbl == nil || e.Sys == nil || e.Idx == nil {
		return nil, errors.New("engine: IndexEngine needs a table, a system, and an index")
	}
	sch := e.Tbl.Schema()
	if err := q.Validate(sch); err != nil {
		return nil, err
	}
	if q.Snapshot != nil && !e.Tbl.HasMVCC() {
		return nil, fmt.Errorf("engine: snapshot query over table %q without MVCC", e.Tbl.Name())
	}
	lo, hi, ok := q.Selection.KeyRange(e.Idx.Column())
	if !ok {
		return nil, fmt.Errorf("engine: selection does not constrain indexed column %q",
			sch.Column(e.Idx.Column()).Name)
	}

	// Residual predicates (the index already enforced the key range, but
	// equal-column predicates may be tighter than [lo,hi] alone — re-check
	// everything for correctness). No per-row iterator overhead: candidates
	// arrive as a materialized id list.
	s := &scan{sch: sch, tickPerRow: true}
	if e.Tbl.HasMVCC() {
		s.mvccTbl = e.Tbl
	}

	s.prepare = func(*pipeRun) ([]int32, error) {
		return e.Idx.Range(e.Sys.Hier, lo, hi), nil
	}
	tbl := e.Tbl
	s.segs = func(pr *pipeRun) segIter {
		return oneShotIter(segment{cols: heapRegions(tbl), ids: pr.ids, sourceRows: int64(len(pr.ids))})
	}

	if err := s.attachVec(tbl.NumRows(), vecSpec{sel: q.Selection, ch: idxVecCharges}, &e.scratch); err != nil {
		return nil, err
	}
	return s, nil
}

// estimateIDX prices the index path for the optimizer: tree descent plus a
// scattered fetch per candidate row, with the candidates counted exactly by
// the tree's own uncharged leaf walk.
func (o *Optimizer) estimateIDX(q Query) plan.Est {
	if o.Index == nil {
		return plan.Est{Engine: "IDX", Available: false, Reason: "no index exists on this table"}
	}
	lo, hi, ok := q.Selection.KeyRange(o.Index.Column())
	if !ok {
		return plan.Est{Engine: "IDX", Available: false,
			Reason: "selection does not constrain the indexed column"}
	}
	cfg := o.Sys.Cfg
	n := float64(o.Tbl.NumRows())
	candidates := float64(o.Index.Count(lo, hi))
	sel := candidates / max(n, 1)

	// Descent: height * ~3 node lines, mostly L2-resident after warmup;
	// price them as L2 hits.
	cost := float64(o.Index.Height()*3) * float64(cfg.Cache.L2.HitCycles)
	cost += candidates / 64 * 3 * float64(cfg.Cache.L2.HitCycles)
	// Scattered row fetches: unclustered, so charge an overlapped miss per
	// candidate row plus per-column extraction and consumption.
	perRow := float64(cfg.Cache.OverlapMissCycles + cfg.Cache.L2.HitCycles)
	perRow += float64(len(q.consumedColumns())+len(q.Selection)) * (ExtractCycles + PredEvalCycles)
	cost += candidates * perRow
	_, consume := consumeTouches(&q)
	cost += candidates * float64(consume)
	return plan.Est{Engine: "IDX", Cycles: cost, Selectivity: sel, Available: true}
}
