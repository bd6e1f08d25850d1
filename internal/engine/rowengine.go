package engine

import (
	"errors"
	"fmt"

	"rfabric/internal/obs"
	"rfabric/internal/table"
)

// RowEngine is the row-oriented access path — the paper's ROW baseline.
// Every visited row pulls its full cache line(s) through the hierarchy
// whether or not the query needs the other attributes, which is precisely
// the pollution Relational Memory removes. As a Source it contributes the
// N-ary heap's layout and charges; the scan and consume loops live in the
// shared pipeline.
type RowEngine struct {
	Tbl *table.Table
	Sys *System

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
func (e *RowEngine) Name() string { return "ROW" }

func (e *RowEngine) tableLabel() string {
	if e.Tbl == nil {
		return ""
	}
	return e.Tbl.Name()
}

func (e *RowEngine) sysTracer() (*System, *obs.Tracer) { return e.Sys, e.Tracer }

// Execute runs q and returns its result with the modeled cost.
func (e *RowEngine) Execute(q Query) (*Result, error) { return Run(e, q) }

// openScan implements Source: the base heap is one strided segment whose
// per-row cost is the volcano iterator overhead plus an extract per touched
// column, with the MVCC header touch when the table versions rows.
func (e *RowEngine) openScan(q *Query, _ *obs.Span) (*scan, error) {
	if e.Tbl == nil || e.Sys == nil {
		return nil, errors.New("engine: RowEngine needs a table and a system")
	}
	sch := e.Tbl.Schema()
	if err := q.Validate(sch); err != nil {
		return nil, err
	}
	if q.Snapshot != nil && !e.Tbl.HasMVCC() {
		return nil, fmt.Errorf("engine: snapshot query over table %q without MVCC", e.Tbl.Name())
	}

	s := &scan{sch: sch, tickPerRow: true}
	if e.Tbl.HasMVCC() {
		s.mvccTbl = e.Tbl
	}

	rows := e.Tbl.NumRows()
	seg := segment{cols: heapRegions(e.Tbl), rows: rows, sourceRows: int64(rows)}
	s.segs = func(*pipeRun) segIter { return oneShotIter(seg) }

	if err := s.attachVec(rows, vecSpec{sel: q.Selection, ch: rowVecCharges}, &e.scratch); err != nil {
		return nil, err
	}
	return s, nil
}
