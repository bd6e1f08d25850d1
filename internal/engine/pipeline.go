package engine

import (
	"fmt"

	"rfabric/internal/cache"
	"rfabric/internal/dram"
	"rfabric/internal/fabric"
)

// The shared operator pipeline. Every access path executes here, on the
// batch executor in pipeline_vec.go. It is written once and parameterized
// by the scan the source opened — per-touch charge constants, segment
// layout, addressing, MVCC policy, pipeline accounting — so ROW, COL, RM,
// and IDX differ only in what a touched byte costs and where it comes
// from, never in how the operators run.
//
// The charge model, per visited row: the iterator overhead (perRow), the
// MVCC header touch on versioned tables (plus the software visibility
// check under a snapshot, which skips rows the snapshot hides), then the
// first touch of each column the row reads, each loaded once and charged
// a fetch: the predicates' columns in predicate order, each evaluation
// charged, stopping at the first predicate that fails; then, for a row that
// passes, the visit list (COL's reconstruction order) and the outcome's
// columns (the consumption's, or a join sink's), and the outcome's own
// compute.

// pipeRun is one execution's measured window: the hardware-counter
// baselines plus the running compute charge and timeline ticker. Sources'
// prepare hooks charge through it (index descent, COL bitmap passes) and
// record their loads in loads.
type pipeRun struct {
	memStart  dram.Stats
	hierStart cache.Stats
	fabStart  fabric.Stats
	compute   uint64
	tk        ticker
	ids       []int32 // prepare's explicit row-id list, if any
	loads     loadBuf // the charge replay
}

// run dispatches an opened scan to its execution mode. A batch scan
// compiles its program here, once: from the sink's pass outcomes when a
// join side streams into one, else from q's consumption.
func (s *scan) run(q *Query) (*Result, error) {
	if s.direct != nil {
		return s.direct()
	}
	var passes []passOutcome
	if s.sink != nil {
		passes = s.sink.passes()
	}
	s.prog = compileScanProg(q, s.sch, s.spec, passes)
	return s.runVec(q)
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
