package engine

import (
	"errors"
	"fmt"

	"rfabric/internal/cache"
	"rfabric/internal/expr"
	"rfabric/internal/fabric"
	"rfabric/internal/geometry"
	"rfabric/internal/obs"
	"rfabric/internal/table"
)

// RMEngine is the Relational Memory access path: it configures an ephemeral
// view of exactly the columns the query needs and delivers the packed
// chunks the fabric produces as the pipeline's segments — the packed layout
// is precisely the "optimal layout" the paper argues every query should see
// (§II). As a Source it contributes chunk delivery, packed addressing, and
// the producer/consumer pipeline accounting; the scan and consume loops
// live in the shared pipeline.
type RMEngine struct {
	Tbl *table.Table
	Sys *System

	// PushSelection evaluates the query's predicates inside the fabric
	// (§IV-B); only qualifying rows are shipped. When false the predicates
	// run vectorized on the CPU over packed data, matching the paper's
	// projection-only prototype (§V).
	PushSelection bool
	// Offload enables the full operator-offload layer: selection,
	// projection, grouped or ungrouped aggregation over plain columns, and
	// any attached semi-join or dictionary filters all run fabric-side, and
	// an offloaded aggregation ships only its results (§IV-B). Derived
	// aggregate expressions always run on the CPU. It implies
	// PushSelection.
	Offload bool

	// SemiJoin, when set, pre-filters the scan's rows against a build-side
	// Bloom filter inside the fabric, so probe rows that cannot join never
	// ship (the join executor attaches this for Bloom-filtered probes).
	SemiJoin *fabric.SemiJoin
	// DictFilters push code-domain predicates over dictionary-encoded
	// columns: rows are filtered by stored code, no CPU-side decompression.
	DictFilters []fabric.DictFilter

	// Tracer, when set, receives a span for this execution with leaves
	// that reconcile with the Breakdown. Nil means no tracing overhead.
	Tracer *obs.Tracer

	// ForceScalar is inert: every scan runs on the batch pipeline. The
	// field stays only because the frozen façade benchmark's shadow
	// (hostbench) still sets it; ROADMAP item 4 removes its last user.
	ForceScalar bool

	// Cache, when set, makes column groups persistent across queries: a
	// scan first tries to replay a resident group (buffer hits instead of
	// DRAM gathers), and on a miss records the chunks it delivers so the
	// next same-shaped query runs warm. Nil preserves the paper's
	// per-query ephemeral behaviour exactly.
	Cache *fabric.GroupCache

	// scratch is the engine-owned batch workspace, allocated on first
	// execution and reused so steady-state scans allocate nothing
	// per batch.
	scratch *scanScratch
}

// Name implements Executor.
func (e *RMEngine) Name() string { return "RM" }

func (e *RMEngine) tableLabel() string {
	if e.Tbl == nil {
		return ""
	}
	return e.Tbl.Name()
}

func (e *RMEngine) sysTracer() (*System, *obs.Tracer) { return e.Sys, e.Tracer }

// Execute runs q and returns its result with the modeled cost.
func (e *RMEngine) Execute(q Query) (*Result, error) { return Run(e, q) }

// openScan implements Source: configure the ephemeral view, then describe
// the chunked pipeline — or, when the whole aggregation is pushable, hand
// the pipeline a direct mode that ships only the aggregate results.
func (e *RMEngine) openScan(q *Query, sp *obs.Span) (*scan, error) {
	if e.Tbl == nil || e.Sys == nil {
		return nil, errors.New("engine: RMEngine needs a table and a system")
	}
	sch := e.Tbl.Schema()
	if err := q.Validate(sch); err != nil {
		return nil, err
	}
	if q.Snapshot != nil && !e.Tbl.HasMVCC() {
		return nil, fmt.Errorf("engine: snapshot query over table %q without MVCC", e.Tbl.Name())
	}

	rp, err := e.scanPlan(q)
	if err != nil {
		return nil, err
	}
	s := &scan{sch: sch}
	if rp.q != q {
		s.rewritten = rp.q
	}
	q, geom, off, pushedPreds := rp.q, rp.geom, rp.off, rp.pushed

	// Semi-join and dictionary filters change the shipped row set like a
	// pushed selection but are per-query state, so filtered scans bypass
	// the group cache.
	filtered := e.SemiJoin != nil || len(e.DictFilters) > 0
	lineBytes := int64(e.Sys.Hier.LineBytes())

	var entry *fabric.GroupEntry
	if e.Cache != nil && off == nil && !filtered {
		entry, _ = e.Cache.Acquire(e.Tbl, geom, q.Snapshot, pushedPreds)
	}

	d := &delivery{hier: e.Sys.Hier, geom: geom, lineBytes: lineBytes}
	if entry != nil {
		// Warm path: the group is resident — no ephemeral view, no DRAM
		// gathers. Chunks replay out of the persistent delivery buffer at
		// datapath beat rate, filling hierarchy lines from the fabric side
		// exactly like a cold delivery so the consumer's accounting (and
		// the logical result) is byte-identical.
		d.packed = entry.PackedWidth()
		sp.SetAttr("group_cache", "hit")
		setGroupAttrs(sp, geom, d.packed)
		s.warm = true
		cache, base := e.Cache, entry.BaseAddr()
		chunks := entry.Chunks()
		s.segs = func(*pipeRun) segIter {
			i := 0
			released := false
			return func() (segment, bool) {
				if i >= len(chunks) {
					if !released {
						released = true
						cache.Release(entry)
					}
					return segment{}, false
				}
				ch := chunks[i]
				i++
				producer := e.Sys.Fab.ReplayChunk(ch.Rows, ch.Len)
				return d.segment(ch.Data, base+int64(ch.Off), ch.Rows, ch.SourceRows, producer), true
			}
		}
	} else {
		var opts []fabric.ViewOption
		if q.Snapshot != nil {
			opts = append(opts, fabric.WithSnapshot(*q.Snapshot))
		}
		if len(pushedPreds) > 0 {
			opts = append(opts, fabric.WithSelection(pushedPreds))
		}
		for _, f := range e.DictFilters {
			opts = append(opts, fabric.WithDictFilter(f))
		}
		if e.SemiJoin != nil {
			opts = append(opts, fabric.WithSemiJoin(e.SemiJoin))
		}
		cfg := sp.AddChild("fabric.configure")
		ev, err := e.Sys.Fab.Configure(e.Tbl, geom, opts...)
		if err != nil {
			return nil, err
		}
		setGroupAttrs(cfg, geom, ev.PackedWidth())

		if off != nil {
			sp.SetAttr("pushdown", "aggregation")
			s.direct = func() (*Result, error) {
				return s.runOffload(ev, off, q)
			}
			return s, nil
		}
		s.offload = e.offloadLabel()

		d.packed = ev.PackedWidth()
		var rec *fabric.GroupRecorder
		if e.Cache != nil && !filtered {
			sp.SetAttr("group_cache", "miss")
			rec = e.Cache.NewRecorder(e.Tbl, geom, q.Snapshot, pushedPreds, d.packed, int(lineBytes))
		}

		// Each fabric chunk is one pipeline segment. Chunk data overlays
		// one rotating delivery window, so the recorder keeps each chunk
		// (Ephemeral.Keep) before the next overwrites it.
		s.segs = func(*pipeRun) segIter {
			ev.Reset()
			return func() (segment, bool) {
				ch, ok := ev.Next()
				if !ok {
					rec.Install()
					return segment{}, false
				}
				if rec != nil {
					rec.Add(ev.Keep(), ch.Rows, ch.SourceRows)
				}
				return d.segment(ch.Data, ch.BaseAddr, ch.Rows, ch.SourceRows, ch.ProducerCycles), true
			}
		}
	}

	if len(pushedPreds) > 0 {
		sp.SetAttr("pushdown", "selection")
	}

	// When selection is pushed down the CPU sees only qualifying rows and
	// evaluates no predicates.
	cpuSel := q.Selection
	if len(pushedPreds) > 0 {
		cpuSel = nil
	}
	s.pipelined = true
	// A segment is one fabric chunk, which the delivery buffer bounds far
	// below the row limit.
	if err := s.attachVec(0, vecSpec{sel: cpuSel, ch: rmVecCharges}, &e.scratch); err != nil {
		return nil, err
	}
	return s, nil
}

// rmScanPlan is RM's scan decisions for one query, made once for the
// executor and the optimizer's warm probe alike: the query the fabric runs
// (a rewrite when it reads no column, see countOverNarrowest), its column
// group, the offload program of a whole aggregation (which ships only
// reduced results, so there is no group to cache or replay), and the
// predicates the fabric evaluates. The group cache keys a column group on
// the table, the group, the snapshot and those predicates, since a pushed
// selection changes which rows the packed group holds.
type rmScanPlan struct {
	q      *Query
	geom   *geometry.Geometry
	off    *fabric.Offload
	pushed expr.Conjunction
}

// scanPlan makes e's scan decisions for q (see rmScanPlan).
func (e *RMEngine) scanPlan(q *Query) (rmScanPlan, error) {
	sch := e.Tbl.Schema()
	rp := rmScanPlan{q: q}
	cols := q.NeededColumns()
	if len(cols) == 0 {
		rq, narrow := countOverNarrowest(*q, sch)
		rp.q, cols = &rq, narrow
	}
	geom, err := geometry.NewGeometry(sch, cols...)
	if err != nil {
		return rp, err
	}
	rp.geom = geom
	if e.Offload {
		rp.off, _ = offloadProgram(*rp.q)
	}
	if (e.PushSelection || e.Offload) && len(rp.q.Selection) > 0 {
		rp.pushed = rp.q.Selection
	}
	return rp, nil
}

// delivery turns a column group's packed chunks, warm replays and cold
// fabric chunks alike, into pipeline segments. Packed rows are accessed
// like Fig. 3's cg[i].field, row-wise over one dense stream, so each chunk
// restates the geometry's columns into one layout indexed by schema column
// (the rest are never fetched).
type delivery struct {
	hier      *cache.Hierarchy
	geom      *geometry.Geometry
	packed    int // bytes per packed row
	lineBytes int64
	layout    []region
}

// segment delivers the packed chunk at data, simulated address addr: its
// lines fill the hierarchy from the fabric side, and the segment carries
// the producer's cycles for the max(producer, consumer) accounting.
func (d *delivery) segment(data []byte, addr int64, rows, sourceRows int, producer uint64) segment {
	if d.layout == nil {
		d.layout = make([]region, d.geom.Schema().NumColumns())
	}
	for i, c := range d.geom.Columns() {
		off := d.geom.PackedOffset(i)
		d.layout[c] = region{data: data, off: off, addr: addr + int64(off), stride: d.packed}
	}
	lines := (int64(len(data)) + d.lineBytes - 1) / d.lineBytes
	for l := int64(0); l < lines; l++ {
		d.hier.FillFromFabric(addr + l*d.lineBytes)
	}
	return segment{cols: d.layout, rows: rows, sourceRows: int64(sourceRows), producer: producer}
}

// countOverNarrowest returns q, a statement that reads no column, as the
// fabric runs it, and the column group it scans. A column group needs a
// column, so the scan takes the table's narrowest column (the first of
// equally narrow ones): the fabric walks every row, checking visibility
// under a snapshot. A bare COUNT(*), with or without a snapshot, counts
// that column instead, priced exactly like COUNT(<that column>); columns
// hold no NULLs, so the counts agree. Aggregates over constants
// (COUNT(0), SUM(1)) are left as they are and read no column of the group.
func countOverNarrowest(q Query, sch *geometry.Schema) (Query, []int) {
	narrow := 0
	for c := 1; c < sch.NumColumns(); c++ {
		if sch.Column(c).Width < sch.Column(narrow).Width {
			narrow = c
		}
	}
	aggs := make([]AggTerm, len(q.Aggregates))
	for i, a := range q.Aggregates {
		if a.Kind == expr.Count && a.Arg == nil {
			a.Arg = expr.ColRef{Col: narrow}
		}
		aggs[i] = a
	}
	q.Aggregates = aggs
	return q, []int{narrow}
}

// offloadLabel names the filter programs attached to a pipelined scan (the
// whole-query aggregation offload labels itself through its descriptor).
func (e *RMEngine) offloadLabel() string {
	label := ""
	if len(e.DictFilters) > 0 {
		label = "dict-scan"
	}
	if e.SemiJoin != nil {
		if label != "" {
			label += "+semi-join"
		} else {
			label = "semi-join"
		}
	}
	return label
}

// setGroupAttrs records a column group's columns and packed width on a
// traced span; an untraced scan (nil span) formats nothing.
func setGroupAttrs(sp *obs.Span, geom *geometry.Geometry, packed int) {
	if sp == nil {
		return
	}
	sp.SetAttr("columns", fmt.Sprint(geom.Columns()))
	sp.SetAttr("packed_width", fmt.Sprint(packed))
}
