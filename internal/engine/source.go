package engine

import (
	"fmt"

	"rfabric/internal/cache"
	"rfabric/internal/expr"
	"rfabric/internal/fabric"
	"rfabric/internal/geometry"
	"rfabric/internal/obs"
	"rfabric/internal/table"
)

// A Source is an access path: it knows where a query's bytes live and what
// each touched byte costs — nothing else. Opening a source against a query
// yields a scan plan (layout, per-touch charges, compiled batch program)
// that the shared pipeline in pipeline.go / pipeline_vec.go executes. The
// engines (ROW, COL, RM, IDX) are Sources; every scan and consume loop
// lives once, in the pipeline, parameterized by the scan the source
// opened.
//
// The contract a source's openScan must honor:
//
//   - validate the query against its schema and fail without charging;
//   - do all cost-free setup (fabric configuration, batch program
//     compilation) before returning — the pipeline captures the hardware
//     counters only after open succeeds;
//   - describe every modeled charge declaratively: its charge constants
//     (one vecCharges, stated once through attachVec), the segment
//     iterator, whose segments state once where each column lives
//     (segment.cols), and (for work that must run inside the measured
//     window, like index descent or COL's bitmap passes) a prepare hook.
type Source interface {
	// Name is the access path's short label (ROW, COL, RM, IDX).
	Name() string
	// tableLabel names the base table for the engine span ("" when the
	// path reads a derived structure with no table of its own).
	tableLabel() string
	// sysTracer exposes the simulated machine and the optional tracer.
	sysTracer() (*System, *obs.Tracer)
	// openScan validates q and builds the scan the pipeline will drive.
	openScan(q *Query, sp *obs.Span) (*scan, error)
}

// Run executes q by opening the source's scan and driving it through the
// shared pipeline. This is the single execution entry point behind every
// engine's Execute method and the DB façade's dispatch. The scan orders and
// cuts its groups under q.Sinks on its group table, boxing only the rows
// the statement returns; ApplySinks then charges the sort.
func Run(src Source, q Query) (*Result, error) { return runScan(src, &q, false) }

// RunPartial runs q on src as one partition of a gathered run (see
// Gather): the result carries its fold's unfinished aggregate state in
// place of Aggs and Groups, which only Gather's merge reads and finishes.
// The state may live in src's reusable batch scratch, so it holds until
// src runs again; every partition runs on a source of its own.
func RunPartial(src Source, q Query) (*Result, error) { return runScan(src, &q, true) }

func runScan(src Source, q *Query, part bool) (*Result, error) {
	sys, tr := src.sysTracer()
	sp := beginEngineSpan(tr, src.Name(), src.tableLabel())
	defer tr.End()
	s, err := src.openScan(q, sp)
	if err != nil {
		return nil, err
	}
	s.name = src.Name()
	s.sys = sys
	s.tracer = tr
	s.sp = sp
	s.part = part
	if s.rewritten != nil {
		q = s.rewritten
	}
	return s.run(q)
}

// segment is one contiguous delivery of rows from a source: the whole base
// heap (ROW), the column store's row range (COL), one fabric chunk (RM), or
// an index candidate list (IDX).
type segment struct {
	// cols is the segment's physical layout, indexed by schema column:
	// where each column the scan touches lives. It is the one description
	// the batch decode, the gathers and the charge replay all read.
	cols []region

	// rows is the dense row count; ids, when non-nil, is the explicit
	// visit list (index candidates, COL's qualifying row ids) and takes
	// precedence over rows.
	rows int
	ids  []int32

	// sourceRows is how many source rows this segment accounts for in
	// Result.RowsScanned.
	sourceRows int64
	// producer is the fabric-side production time of this segment
	// (pipelined sources only).
	producer uint64
}

// region locates one column's values: row r's value starts at byte
// off+r*stride of data, at simulated address addr+r*stride. A row-major
// heap gives every column the row stride, the column store each column its
// own dense array, and a fabric chunk the packed width.
type region struct {
	data   []byte
	off    int
	addr   int64
	stride int
}

// stream is the region's addresses as a load stream indexed by row.
func (g *region) stream() cache.Stream {
	return cache.Stream{Base: g.addr, Stride: int64(g.stride)}
}

// heapRegions describes a row-major heap: column c of row r sits past the
// row's MVCC header (on versioned tables) at the column's schema offset.
// The header itself stays the table's row-major stream (Table.RowAddr).
func heapRegions(tbl *table.Table) []region {
	sch := tbl.Schema()
	payload := 0
	if tbl.HasMVCC() {
		payload = table.MVCCHeaderBytes
	}
	regs := make([]region, sch.NumColumns())
	for c := range regs {
		off := payload + sch.Offset(c)
		regs[c] = region{data: tbl.Data(), off: off, addr: tbl.BaseAddr() + int64(off), stride: tbl.RowStride()}
	}
	return regs
}

// segIter yields segments; it is created inside the measured window so
// resets and per-segment gathers charge to the run.
type segIter func() (segment, bool)

// scan is an opened access path: everything the shared pipeline needs to
// execute a query over one source. Exactly one of two modes applies:
// direct (the source computed the result itself, e.g. fabric aggregation
// pushdown), or batch (prog compiled, run by runVec).
type scan struct {
	// Filled by Run.
	name   string
	sys    *System
	tracer *obs.Tracer
	sp     *obs.Span

	sch *geometry.Schema

	// part keeps the fold unfinished, for a partition's merge
	// (RunPartial).
	part bool

	// rewritten, when set, is the query the pipeline runs in place of the
	// one the source was opened with (see countOverNarrowest).
	rewritten *Query

	// direct bypasses the pipeline: the source produces the Result under
	// its own accounting (it still runs inside the measured window).
	direct func() (*Result, error)

	// prog is the compiled batch program, run over scratch.
	prog    *scanProg
	scratch *scanScratch

	// Behavior flags.
	tickPerRow bool   // advance the timeline clock per row (demand paths)
	pipelined  bool   // per-segment producer/consumer pipeline accounting (RM)
	warm       bool   // segments replay a cached column group (sets Result.CacheWarm)
	offload    string // fabric operator program label (sets Result.Offload)

	// mvccTbl, when non-nil, makes the pipeline touch each row's version
	// header; with q.Snapshot set it also pays the software visibility
	// check and skips invisible rows.
	mvccTbl *table.Table

	// prepare runs inside the measured window before iteration and may
	// return an explicit row-id list for the (single) segment: index
	// descent, COL's full-column bitmap selection passes.
	prepare func(pr *pipeRun) ([]int32, error)

	// segs builds the segment iterator (called inside the measured
	// window; RM resets the ephemeral view here).
	segs func(pr *pipeRun) segIter

	// spec is the batch compilation input prog was built from: the CPU
	// predicates, the visit list and the source's charge constants (set
	// with prog by attachVec).
	spec vecSpec

	// sink, when non-nil, replaces the consumption: every qualifying row
	// is handed to it instead of being folded into a Result. The join
	// executor streams each side this way, so every build/probe byte still
	// flows through Hier.Load and the side's span and breakdown reconcile
	// like any other scan. Sink scans report RowsPassed (rows delivered)
	// but no checksum/aggregates.
	sink sideSink
}

// attachVec compiles q's batch program from the source's spec, reusing the
// engine-owned scratch (created on first use) so steady-state scans
// allocate nothing per batch. rows is the most rows one segment holds; a
// source past vecRowLimit fails.
func (s *scan) attachVec(q *Query, rows int, spec vecSpec, scratch **scanScratch) error {
	if rows > vecRowLimit {
		return fmt.Errorf("engine: %d rows exceed the batch pipeline's limit of %d", rows, vecRowLimit)
	}
	if *scratch == nil {
		*scratch = &scanScratch{}
	}
	s.prog, s.scratch, s.spec = compileScanProg(q, s.sch, spec, nil), *scratch, spec
	return nil
}

// offloadProgram converts a query's aggregation shape into a fabric operator
// program when every term is COUNT(*) or a plain-column aggregate — the only
// shapes simple enough for the hardware datapath. Grouped and ungrouped
// shapes both qualify; derived aggregate expressions do not. This lives on
// the Source contract (not inside one engine) so any access path — and the
// optimizer pricing them — sees the same definition of "offloadable".
func offloadProgram(q Query) (*fabric.Offload, bool) {
	if len(q.Aggregates) == 0 {
		return nil, false
	}
	specs := make([]expr.AggSpec, len(q.Aggregates))
	for i, t := range q.Aggregates {
		if t.Arg == nil {
			specs[i] = expr.AggSpec{Kind: expr.Count}
			continue
		}
		ref, ok := t.Arg.(expr.ColRef)
		if !ok {
			return nil, false
		}
		specs[i] = expr.AggSpec{Kind: t.Kind, Col: ref.Col}
	}
	return &fabric.Offload{GroupBy: q.GroupBy, Aggs: specs}, true
}

// runOffload is the direct mode behind an offloaded aggregation: the fabric
// runs the whole program (selection, projection, grouping, folding) and
// ships only the reduced result, so there is no pipeline to drive — just
// the producer's time and the result bytes. The fabric folds with the batch
// consumer's kernels, and its group table is finished like the pipeline's
// (finishAggs), so the Result is bit-identical to a CPU-side execution of
// the same query. It leaves no partial state: the fabric finalizes an
// ungrouped program itself, so an offloaded scan is never a partition.
func (s *scan) runOffload(ev *fabric.Ephemeral, off *fabric.Offload, q *Query) (*Result, error) {
	sys, sp := s.sys, s.sp
	memStart := sys.Mem.Stats()
	hierStart := sys.Hier.Stats()
	or, err := ev.RunOffload(off)
	if err != nil {
		return nil, err
	}
	tk := newTicker(s.tracer)
	tk.advance(or.ProducerCycles)
	res := &Result{
		Engine:      s.name,
		RowsScanned: int64(or.RowsScanned),
		RowsPassed:  int64(or.RowsQualified),
		Offload:     off.Describe(),
	}
	if !off.Grouped() {
		res.Aggs = or.Values
	} else {
		res.finishAggs(aggOut{groups: or.Groups}, *q, false)
	}
	sp.SetAttr("offload", off.Describe())
	res.Breakdown = pipelineBreakdown(sys, memStart, hierStart, 0, or.ProducerCycles, or.ProducerCycles, uint64(or.ResultBytes))
	finishPipelineSpan(sp, sys, memStart, hierStart, res)
	return res, nil
}
