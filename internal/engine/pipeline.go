package engine

import (
	"fmt"

	"rfabric/internal/cache"
	"rfabric/internal/colstore"
	"rfabric/internal/dram"
	"rfabric/internal/expr"
	"rfabric/internal/fabric"
	"rfabric/internal/geometry"
	"rfabric/internal/table"
)

// The shared operator pipeline. Every access path executes here: the
// scalar interpreter below drives any opened scan row-at-a-time, and
// pipeline_vec.go holds its batch twin. The loops are written once and
// parameterized by the scan the source opened — per-touch charge
// constants, segment layout, addressing, MVCC policy, pipeline accounting —
// so ROW, COL, RM, and IDX differ only in what a touched byte costs and
// where it comes from, never in how the operators run.

// pipeRun is one execution's measured window: the hardware-counter
// baselines plus the running compute charge and timeline ticker. Sources'
// prepare hooks charge through it (index descent, COL bitmap passes); on
// the batch pipeline they record their loads in loads.
type pipeRun struct {
	memStart  dram.Stats
	hierStart cache.Stats
	fabStart  fabric.Stats
	compute   uint64
	tk        ticker
	ids       []int32 // prepare's explicit row-id list, if any
	loads     loadBuf // the batch pipeline's charge replay (unused by runScalar)
}

// run dispatches an opened scan to its execution mode.
func (s *scan) run(q Query) (*Result, error) {
	if s.direct != nil {
		return s.direct()
	}
	if s.prog != nil {
		return s.runVec(q)
	}
	return s.runScalar(q)
}

// begin opens the measured window: everything charged from here on is the
// query's modeled cost.
func (s *scan) begin() *pipeRun {
	pr := &pipeRun{memStart: s.sys.Mem.Stats(), hierStart: s.sys.Hier.Stats()}
	if s.pipelined {
		pr.fabStart = s.sys.Fab.Stats()
	}
	pr.tk = newTicker(s.tracer)
	return pr
}

// finishRun closes the measured window: breakdown, final timeline tick,
// span attribution.
func (s *scan) finishRun(pr *pipeRun, res *Result, pipeline, producer uint64) (*Result, error) {
	res.CacheWarm = s.warm
	if s.offload != "" {
		res.Offload = s.offload
		s.sp.SetAttr("offload", s.offload)
	}
	if s.pipelined {
		fabD := s.sys.Fab.Stats().Delta(pr.fabStart)
		res.Breakdown = pipelineBreakdown(s.sys, pr.memStart, pr.hierStart, pr.compute, pipeline, producer, fabD.BytesShipped)
		finishPipelineSpan(s.sp, s.sys, pr.memStart, pr.hierStart, res)
		if s.sp != nil { // an untraced scan formats no attributes
			s.sp.SetAttr("fabric_chunks", fmt.Sprint(fabD.Chunks))
			s.sp.SetAttr("fabric_bytes_gathered", fmt.Sprint(fabD.BytesGathered))
		}
		return res, nil
	}
	pr.tk.advance(s.sys.Hier.Stats().Cycles - pr.hierStart.Cycles + pr.compute)
	res.Breakdown = demandBreakdown(s.sys, pr.memStart, pr.hierStart, pr.compute)
	finishDemandSpan(s.sp, s.sys, pr.memStart, pr.hierStart, res)
	return res, nil
}

// runScalar is the interpreted pipeline: for each segment the source
// delivers, visit each row (dense or by explicit id), pay the iterator
// overhead, check visibility, evaluate the CPU-resident predicates with
// short-circuit, touch the visit-list columns, and fold survivors into the
// consumer. Per-row fetches are cached by epoch so a column is loaded and
// charged at most once per row, whichever operator touches it first.
func (s *scan) runScalar(q Query) (*Result, error) {
	pr := s.begin()
	var cons *consumer
	if s.sink == nil {
		cons = newConsumer(q, s.sch, &pr.compute)
	}
	var rowsSunk int64

	// Per-row lazily fetched value cache, epoch-invalidated. The fetch
	// closure is defined once (capturing the row and segment cursors) so
	// the row loop does not allocate, and the column metadata the hot path
	// needs is hoisted into a flat array.
	numCols := s.sch.NumColumns()
	vals := make([]table.Value, numCols)
	fetchedAt := make([]int64, numCols)
	colDef := make([]geometry.Column, numCols)
	for i := range fetchedAt {
		fetchedAt[i] = -1
		colDef[i] = s.sch.Column(i)
	}
	var epoch int64
	var row int
	var seg segment
	fetch := func(col int) table.Value {
		if fetchedAt[col] == epoch {
			return vals[col]
		}
		src, addr := seg.cols[col].at(row)
		s.sys.Hier.Load(addr)
		pr.compute += s.fetchCycles
		v := table.DecodeColumn(colDef[col], src)
		vals[col] = v
		fetchedAt[col] = epoch
		return v
	}

	if s.prepare != nil {
		ids, err := s.prepare(pr)
		if err != nil {
			return nil, err
		}
		pr.ids = ids
	}

	var pipeline, producer uint64
	var scanned int64
	next := s.segs(pr)
	for {
		hierBefore := s.sys.Hier.Stats().Cycles
		computeBefore := pr.compute

		var ok bool
		seg, ok = next()
		if !ok {
			break
		}
		scanned += seg.sourceRows

		n := seg.rows
		if seg.ids != nil {
			n = len(seg.ids)
		}
		for i := 0; i < n; i++ {
			r := i
			if seg.ids != nil {
				r = int(seg.ids[i])
			}
			if s.tickPerRow && pr.tk.tl != nil {
				pr.tk.advance(s.sys.Hier.Stats().Cycles - pr.hierStart.Cycles + pr.compute)
			}
			pr.compute += s.perRow
			epoch++

			if s.mvccTbl != nil {
				// The software path must read the row header to check
				// visibility — one more touch of the row's first line.
				s.sys.Hier.Load(s.mvccTbl.RowAddr(r))
				if q.Snapshot != nil {
					pr.compute += TSCheckSoftwareCycles
					if !s.mvccTbl.VisibleAt(r, *q.Snapshot) {
						continue
					}
				}
			}

			row = r
			pass := true
			for _, p := range s.cpuSel {
				pr.compute += s.predCycles
				if !p.Eval(fetch(p.Col)) {
					pass = false
					break
				}
			}
			if !pass {
				continue
			}
			// Explicit visit list (COL's reconstruction order): touch every
			// consumed column before folding, so the access pattern is
			// deterministic row-major interleaving.
			for _, c := range s.visit {
				fetch(c)
			}
			if s.sink != nil {
				s.sink.row(pr, fetch)
				rowsSunk++
			} else {
				cons.consumeRow(fetch)
			}
		}

		if s.pipelined {
			consumer := (s.sys.Hier.Stats().Cycles - hierBefore) + (pr.compute - computeBefore)
			producer += seg.producer
			if seg.producer > consumer {
				pipeline += seg.producer
			} else {
				pipeline += consumer
			}
			pr.tk.advance(pipeline)
		}
	}

	var res *Result
	if s.sink != nil {
		res = &Result{Engine: s.name, RowsScanned: scanned, RowsPassed: rowsSunk}
	} else {
		res = cons.finish(s.name, scanned, s.part)
	}
	return s.finishRun(pr, res, pipeline, producer)
}

// oneShotIter yields a single segment then stops — the iterator shape of
// every non-chunked source.
func oneShotIter(seg segment) segIter {
	done := false
	return func() (segment, bool) {
		if done {
			return segment{}, false
		}
		done = true
		return seg, true
	}
}

// colBitmapSelect runs the decomposed layout's selection: one full-column
// pass per predicate, MonetDB-style — each pass streams the entire column
// (dense, prefetch-friendly) and materializes a full-length match bitmap,
// which the next pass ANDs into. This is the materialized-intermediate
// discipline of true column-at-a-time processing; it trades extra value
// touches for perfectly sequential access. The returned row-id list is the
// qualifying set in row order, nil when there is no selection (every row
// qualifies). colBitmapPasses is its batch twin.
func colBitmapSelect(pr *pipeRun, sys *System, store *colstore.Store, sch *geometry.Schema, selection expr.Conjunction) []int32 {
	if len(selection) == 0 {
		return nil
	}
	rows := store.NumRows()
	var bitmap []bool
	// The match bitmap is itself a memory-resident intermediate; every
	// pass streams it alongside the predicate column.
	bitmapAddr := sys.Arena.Alloc(int64(rows))
	for pi, p := range selection {
		col := p.Col
		w := sch.Column(col).Width
		data := store.ColumnData(col)
		if pi == 0 {
			// The first pass only writes the bitmap (streaming store); later
			// passes read-modify-write it and pay the load.
			bitmap = make([]bool, rows)
			for r := 0; r < rows; r++ {
				if pr.tk.tl != nil {
					pr.tk.advance(sys.Hier.Stats().Cycles - pr.hierStart.Cycles + pr.compute)
				}
				sys.Hier.Load(store.ValueAddr(col, r))
				pr.compute += VectorOpCycles + MaterializeCycles
				bitmap[r] = p.Eval(table.DecodeColumn(sch.Column(col), data[r*w:]))
			}
			continue
		}
		for r := 0; r < rows; r++ {
			if pr.tk.tl != nil {
				pr.tk.advance(sys.Hier.Stats().Cycles - pr.hierStart.Cycles + pr.compute)
			}
			sys.Hier.Load(store.ValueAddr(col, r))
			sys.Hier.Load(bitmapAddr + int64(r))
			pr.compute += VectorOpCycles + MaterializeCycles
			if bitmap[r] {
				bitmap[r] = p.Eval(table.DecodeColumn(sch.Column(col), data[r*w:]))
			}
		}
	}
	return bitmapIDs(pr, bitmap)
}

// bitmapIDs materializes the qualifying row ids of a selection bitmap,
// charging each one. The list is sized by the bitmap's set count (and is
// non-nil even when empty: nil means no selection).
func bitmapIDs(pr *pipeRun, bitmap []bool) []int32 {
	n := 0
	for _, ok := range bitmap {
		if ok {
			n++
		}
	}
	ids := make([]int32, 0, n)
	for r, ok := range bitmap {
		if ok {
			ids = append(ids, int32(r))
		}
	}
	pr.compute += uint64(len(ids) * MaterializeCycles)
	return ids
}
