package engine

import (
	"fmt"
	"strconv"

	"rfabric/internal/cache"
	"rfabric/internal/dram"
	"rfabric/internal/obs"
)

// Span construction for the execution engines. Every engine lays out its
// span so that the span's AttributedCycles reconciles exactly with the
// run's Breakdown.TotalCycles:
//
//   - demand paths (ROW, COL, IDX) attribute `compute`, `memory.demand`,
//     and whatever the DRAM occupancy floor added on top as
//     `dram.bandwidth_stall`;
//   - the pipeline path (RM) attributes `pipeline` (the per-chunk
//     producer/consumer maxima) plus the same stall leaf;
//   - the parallel path (PAR scans and joins) attributes
//     `schedule.makespan` and `merge`, and hangs the per-morsel sub-traces
//     under a Detail subtree — their cycles overlap the makespan rather
//     than adding to it, and each sub-root reconciles with its own partial.
//     Sharded tables run on the same scatter/gather core but are not
//     traced.

// finishDemandSpan attaches attribution leaves and cache/DRAM annotations
// for a demand-path run. Nil-safe on sp.
func finishDemandSpan(sp *obs.Span, sys *System, memStart dram.Stats, hierStart cache.Stats, res *Result) {
	if sp == nil {
		return
	}
	b := res.Breakdown
	sp.Leaf("compute", b.ComputeCycles, 0)
	sp.Leaf("memory.demand", b.MemDemandCycles, b.BytesToCPU)
	if stall := b.TotalCycles - b.CPUCycles(); stall > 0 {
		sp.Leaf("dram.bandwidth_stall", stall, 0)
	}
	annotateRun(sp, sys, memStart, hierStart, res)
}

// finishPipelineSpan attaches attribution leaves and annotations for an RM
// pipeline run. Nil-safe on sp.
func finishPipelineSpan(sp *obs.Span, sys *System, memStart dram.Stats, hierStart cache.Stats, res *Result) {
	if sp == nil {
		return
	}
	b := res.Breakdown
	sp.Leaf("pipeline", b.PipelineCycles, b.BytesToCPU)
	if stall := b.TotalCycles - b.PipelineCycles; stall > 0 {
		sp.Leaf("dram.bandwidth_stall", stall, 0)
	}
	sp.SetAttr("producer_cycles", strconv.FormatUint(b.ProducerCycles, 10))
	annotateRun(sp, sys, memStart, hierStart, res)
}

// annotateRun records the per-node EXPLAIN ANALYZE numbers: row counts,
// DRAM bytes, cache miss ratio, and row-buffer hit rate over the run's
// stats window.
func annotateRun(sp *obs.Span, sys *System, memStart dram.Stats, hierStart cache.Stats, res *Result) {
	memD := sys.Mem.Stats().Delta(memStart)
	hierD := sys.Hier.Stats().Delta(hierStart)
	sp.SetAttr("rows_scanned", strconv.FormatInt(res.RowsScanned, 10))
	sp.SetAttr("rows_passed", strconv.FormatInt(res.RowsPassed, 10))
	sp.SetAttr("dram_bytes", strconv.FormatUint(res.Breakdown.BytesFromDRAM, 10))
	sp.SetAttr("cache_miss_ratio", formatRatio(hierD.MissRatio()))
	sp.SetAttr("row_buffer_hit_rate", formatRatio(memD.RowBufferHitRate()))
}

func formatRatio(v float64) string {
	return strconv.FormatFloat(v, 'f', 4, 64)
}

// beginEngineSpan opens an engine-dispatch span named label, annotated
// with the engine kind and table; the companion finish helpers close the
// attribution.
func beginEngineSpan(tr *obs.Tracer, label, engine, tbl string) *obs.Span {
	sp := tr.Begin(label)
	sp.SetAttr("engine", engine)
	if tbl != "" {
		sp.SetAttr("table", tbl)
	}
	return sp
}

// morselSpanName labels one morsel's sub-trace.
func morselSpanName(i int) string { return fmt.Sprintf("morsel[%d]", i) }

// ticker drives a traced run's Timeline clock from the engine's natural
// progress points. Engines feed it the cumulative cycles charged so far
// (demand-path: hierarchy cycles + compute; pipeline: the running pipeline
// total) and it forwards monotone deltas to the sampler. With no timeline
// attached the per-iteration cost is one nil check on tk.tl.
type ticker struct {
	tl   *obs.Timeline
	last uint64
}

func newTicker(tr *obs.Tracer) ticker { return ticker{tl: tr.Timeline()} }

// advance moves the timeline clock to charged cumulative cycles.
func (t *ticker) advance(charged uint64) {
	if t.tl == nil || charged <= t.last {
		return
	}
	t.tl.Tick(charged - t.last)
	t.last = charged
}
