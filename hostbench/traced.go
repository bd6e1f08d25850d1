package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"rfabric"
	"rfabric/internal/cache"
	"rfabric/internal/colstore"
	"rfabric/internal/dram"
	"rfabric/internal/engine"
	"rfabric/internal/fabric"
	"rfabric/internal/obs"
	"rfabric/internal/sql"
)

// layerTally accumulates the per-layer counters of the traced run. Byte
// counts of PAR ops come from the merged Result.Breakdown: morsel clones'
// traffic never reaches the shared System's counters.
type layerTally struct {
	queries                   int
	bytesToCPU, bytesGathered uint64
	dramBytes                 uint64
	hier                      cache.Stats  // non-PAR ops
	mem                       dram.Stats   // non-PAR ops
	fab                       fabric.Stats // non-PAR ops
}

func (t *layerTally) add(par bool, res *engine.Result, h cache.Stats, m dram.Stats, f fabric.Stats) {
	t.queries++
	if par {
		t.bytesToCPU += res.Breakdown.BytesToCPU
		t.bytesGathered += res.Breakdown.BytesFromDRAM
		t.dramBytes += res.Breakdown.BytesFromDRAM
		return
	}
	t.bytesToCPU += f.BytesShipped
	t.bytesGathered += f.BytesGathered
	t.dramBytes += m.BytesRead
	t.hier.Loads += h.Loads
	t.hier.DRAMFills += h.DRAMFills
	t.hier.PrefetchHits += h.PrefetchHits
	t.hier.PrefetchIssued += h.PrefetchIssued
	t.mem.RowHits += m.RowHits
	t.mem.RowMisses += m.RowMisses
	t.fab.BytesShipped += f.BytesShipped
	t.fab.BytesGathered += f.BytesGathered
	t.fab.RowsScanned += f.RowsScanned
	t.fab.RowsSemiFiltered += f.RowsSemiFiltered
}

// runTraced replays the untraced run's op sequence on four identically
// built databases: the benchmark's layered dispatch (S, timed span by
// span), the observed façade (A), a bare façade (B) and the ROW reference.
// Every op runs on S first — AUTO on S reads A's statement store, which A
// updates only when it runs — then on A and B, alternating which goes
// first. S must agree with A exactly (the decomposition check), and A and B
// with the reference. A CPU profile covers the replay.
func runTraced(w *workload, seconds float64, outDir string) (*outcome, error) {
	out := newOutcome()
	catalogs := make([]*catalog, 3)
	for i := range catalogs {
		c, err := buildCatalog(w)
		if err != nil {
			return nil, err
		}
		catalogs[i] = c
	}
	obsd, err := newFacade(catalogs[0])
	if err != nil {
		return nil, err
	}
	obsd.observe()
	bare, err := newFacade(catalogs[1])
	if err != nil {
		return nil, err
	}
	sh, err := newShadow(catalogs[2], w.offload)
	if err != nil {
		return nil, err
	}
	sh.feedback = obsd.db.Statements()
	if _, err := setup(w, sh, obsd, bare); err != nil {
		return nil, err
	}
	orc, err := newOracle(w)
	if err != nil {
		return nil, err
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	base := fmt.Sprintf("%s-seed%d", w.name, w.seed)
	profPath := filepath.Join(outDir, "cpu-"+base+".pprof")
	prof, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	defer prof.Close()

	// The statement store and windows obs.record_us feeds are private, so
	// timing them does not disturb the observed façade's feedback loop.
	recStore, recWin := obs.NewStatStore(), obs.NewWindows(60)
	var recordUs, viewMs, obsRatio, traceRatio, bareMs []float64
	var viewOps, recordOps, calOps []int // op ids, to rescale by each op's host speed
	var tally layerTally
	opKind := map[int]rfabric.EngineKind{}
	cal := newCalibration()

	rec := &recorder{t0: time.Now()}
	sh.rec = rec
	plan0, gc0 := obsd.db.PlanCache(), obsd.db.GroupCacheStats()
	gcCPU0, totCPU0 := gcCPU()
	if err := pprof.StartCPUProfile(prof); err != nil {
		return nil, err
	}
	next := w.rounds()
	start := time.Now()
	rounds := 0
	for ; rounds < w.maxRounds(); rounds++ {
		if rounds >= minRounds && time.Since(start).Seconds() >= seconds {
			break
		}
		for _, o := range next() {
			out.attempted++
			if o.insert {
				if err := insertAll(o.srcRow, sh, obsd, bare, orc); err != nil {
					out.fail(&o, err)
				}
				continue
			}
			opKind[o.id] = o.kind
			if o.kind == rfabric.PAR {
				cal.sampleWide()
			} else {
				cal.sample()
			}
			calOps = append(calOps, o.id)
			h0, m0, f0 := sh.sys.Hier.Stats(), sh.sys.Mem.Stats(), sh.sys.Fab.Stats()
			t0 := time.Now()
			resS, err := sh.query(&o)
			dS := time.Since(t0)
			if err != nil {
				out.fail(&o, fmt.Errorf("layered dispatch: %w", err))
				continue
			}
			tally.add(sh.last.par, resS, sh.sys.Hier.Stats().Delta(h0), sh.sys.Mem.Stats().Delta(m0), sh.sys.Fab.Stats().Delta(f0))
			if sh.last.path == "rm" && !sh.last.par {
				d, err := sh.viewTime()
				if err != nil {
					out.fail(&o, fmt.Errorf("fabric view: %w", err))
					continue
				}
				viewMs, viewOps = append(viewMs, ms(d)), append(viewOps, o.id)
			}

			first, second := obsd, bare
			if tally.queries%2 == 0 {
				first, second = bare, obsd
			}
			r1, d1, err1 := timedQuery(first, &o)
			r2, d2, err2 := timedQuery(second, &o)
			resA, dA, resB, dB := r1, d1, r2, d2
			if first == bare {
				resA, dA, resB, dB = r2, d2, r1, d1
			}
			if err := firstErr(err1, err2); err != nil {
				out.fail(&o, err)
				continue
			}
			if err := decomposed(resS, resA); err != nil {
				out.fail(&o, err)
				continue
			}
			if err := firstErr(orc.check(o.text, resA), orc.check(o.text, resB)); err != nil {
				out.fail(&o, err)
				continue
			}
			obsRatio = append(obsRatio, ratio(float64(dA), float64(dB)))
			traceRatio = append(traceRatio, ratio(float64(dS), float64(dB)))
			bareMs = append(bareMs, ms(dB))
			recordUs = append(recordUs, us(recordObs(recStore, recWin, &o, resA, dA)))
			recordOps = append(recordOps, o.id)
		}
	}
	elapsed := time.Since(start)
	pprof.StopCPUProfile()
	gcCPU1, totCPU1 := gcCPU()
	if err := prof.Close(); err != nil {
		return nil, err
	}
	sh.rec = nil
	plan1, gc1 := obsd.db.PlanCache(), obsd.db.GroupCacheStats()

	buildMs, err := timeColumnarBuilds(sh.lineitem(), 5)
	if err != nil {
		return nil, err
	}
	shares, samples, err := profileShares(profPath)
	if err != nil {
		return nil, err
	}
	spanPath := filepath.Join(outDir, "spans-"+base+".json")
	if err := writeSpans(spanPath, rec.spans); err != nil {
		return nil, err
	}

	factor := map[int]float64{}
	for i, f := range cal.factors() {
		factor[calOps[i]] = f
	}
	rescale(viewMs, viewOps, factor)
	rescale(recordUs, recordOps, factor)
	rescale(bareMs, recordOps, factor)
	l := summarize(rec.spans, opKind, factor)
	nq := float64(tally.queries)
	out.put("sql.compile_us", "us", l.compileUs/nq)
	out.put("engine.optimize_us", "us", median(l.optimizeUs))
	out.put("engine.sink_us", "us", median(l.sinkUs))
	for _, p := range []string{"rm", "col"} {
		out.put("engine.exec_ms."+p, "ms", median(l.execMs[p]))
		out.put("engine.exec_allocs."+p, "count", mean(l.execAllocs[p]))
	}
	out.put("engine.par_speedup", "x", ratio(l.serialJoinMs, l.parJoinMs))
	out.put("fabric.view_ms", "ms", median(viewMs))
	out.put("fabric.bytes_to_cpu_per_query", "bytes", float64(tally.bytesToCPU)/nq)
	out.put("fabric.bytes_gathered_per_query", "bytes", float64(tally.bytesGathered)/nq)
	out.put("fabric.ship_ratio", "ratio", ratio(float64(tally.fab.BytesShipped), float64(tally.fab.BytesGathered)))
	out.put("fabric.semi_filtered_ratio", "ratio", ratio(float64(tally.fab.RowsSemiFiltered), float64(tally.fab.RowsScanned)))
	gcd := gc1.Delta(gc0)
	out.put("fabric.groupcache_hit_ratio", "ratio", ratio(float64(gcd.Hits), float64(gcd.Hits+gcd.Misses)))
	out.put("fabric.groupcache_evictions", "count", float64(gcd.Evictions))
	out.put("fabric.groupcache_invalidations", "count", float64(gcd.Invalidations))
	out.put("rfabric.plancache_hit_ratio", "ratio", ratio(float64(plan1.Hits-plan0.Hits),
		float64(plan1.Hits-plan0.Hits+plan1.Misses-plan0.Misses)))
	out.put("colstore.builds", "count", float64(sh.colBuilds))
	out.put("colstore.build_ms", "ms", median(buildMs))
	out.put("cache.loads_per_query", "count", float64(tally.hier.Loads)/nq)
	out.put("cache.miss_ratio", "ratio", ratio(float64(tally.hier.DRAMFills), float64(tally.hier.Loads)))
	out.put("cache.prefetch_hit_ratio", "ratio", ratio(float64(tally.hier.PrefetchHits), float64(tally.hier.PrefetchIssued)))
	out.put("dram.bytes_per_query", "bytes", float64(tally.dramBytes)/nq)
	out.put("dram.row_hit_ratio", "ratio", ratio(float64(tally.mem.RowHits), float64(tally.mem.RowHits+tally.mem.RowMisses)))
	out.put("obs.overhead_ratio", "x", median(obsRatio))
	out.put("obs.record_us", "us", median(recordUs))
	out.put("trace.overhead_ratio", "x", median(traceRatio))
	for _, m := range cpuModules {
		out.put(m+".cpu_share", "ratio", shares[m])
	}
	out.put("runtime.gc_cpu_share", "ratio", ratio(gcCPU1-gcCPU0, totCPU1-totCPU0))

	out.note("workload %s  seed %d  lineitem %d rows  nproc %d  GOMAXPROCS %d  %s",
		w.name, w.seed, lineitemRows, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	out.note("host times are rescaled to a %.2f ms calibration kernel; its median here was %.4f ms",
		refKernelMs, median(cal.samples))
	out.note("traced replay: %d queries over %d rounds in %.2f s; decomposition check passed on %d",
		tally.queries, rounds, elapsed.Seconds(), len(obsRatio))
	out.note("obs.overhead_ratio base: bare façade median %.3f ms per query (ratio = observed / bare, paired per op)", median(bareMs))
	out.note("trace.overhead_ratio base: the same bare median (ratio = layered dispatch with spans / bare façade)")
	for _, p := range []string{"row", "col", "rm", "idx", "par"} {
		if xs := l.execMs[p]; len(xs) > 0 {
			out.note("engine.exec_ms.%s %.3f ms  engine.exec_allocs.%s %.0f  (%d calls)", p, median(xs), p, mean(l.execAllocs[p]), len(xs))
		} else {
			out.note("engine.exec_ms.%s n/a: no op of this workload resolved to %s", p, p)
		}
	}
	for _, e := range []string{"join", "parjoin"} {
		if xs := l.executorMs[e]; len(xs) > 0 {
			out.note("engine.exec_ms.%s %.3f ms  engine.exec_allocs.%s %.0f  (%d calls)", e, median(xs), e, mean(l.executorAllocs[e]), len(xs))
		} else {
			out.note("engine.exec_ms.%s n/a: the workload runs no joins on this executor", e)
		}
	}
	out.note("engine.par_speedup base: serial RM-probe joins %.3f ms vs PAR joins %.3f ms summed over the same statements", l.serialJoinMs, l.parJoinMs)
	out.note("engine.source_us %.3f us median; colstore rebuilds inside replayed ops %d", median(l.sourceUs), sh.colBuilds)
	out.note("CPU profile %s: %d samples; span dump %s (%d spans)", profPath, samples, spanPath, len(rec.spans))
	return out, nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func timedQuery(f *facade, o *op) (*engine.Result, time.Duration, error) {
	t0 := time.Now()
	res, err := f.query(o)
	return res, time.Since(t0), err
}

// decomposed is the decomposition check: the layered dispatch must return
// the façade's result with identical modeled cycles, or the layer numbers
// measure a different program.
func decomposed(layered, facade *engine.Result) error {
	if err := layered.EquivalentTo(facade, 0); err != nil {
		return fmt.Errorf("decomposition check: layered result differs from the façade's: %w", err)
	}
	if layered.Engine != facade.Engine || layered.Breakdown.TotalCycles != facade.Breakdown.TotalCycles {
		return fmt.Errorf("decomposition check: layered %s %d cycles vs façade %s %d cycles",
			layered.Engine, layered.Breakdown.TotalCycles, facade.Engine, facade.Breakdown.TotalCycles)
	}
	return nil
}

// insertAll applies one insert op to every database of the traced run.
func insertAll(row int, sh *shadow, a, b *facade, orc *oracle) error {
	vals, err := rowValues(sh.lineitem(), row)
	if err != nil {
		return err
	}
	return firstErr(sh.insert(vals), a.insert(vals), b.insert(vals), orc.insert(vals))
}

// recordObs times the observability publish of one finished query against
// private sinks: fingerprinting, the statement store, and the windows.
func recordObs(store *obs.StatStore, win *obs.Windows, o *op, res *engine.Result, wall time.Duration) time.Duration {
	t0 := time.Now()
	norm, fp := sql.Fingerprint(o.text)
	store.Record(obs.StatSample{
		Fingerprint: fp, Text: norm, Engine: res.Engine, Cycles: res.Breakdown.TotalCycles,
		WallNanos: wall.Nanoseconds(), RowsScan: res.RowsScanned, RowsRet: res.RowsPassed,
		BytesDRAM: res.Breakdown.BytesFromDRAM, BytesCPU: res.Breakdown.BytesToCPU,
	})
	win.Record(obs.WindowSample{
		WallNanos: wall.Nanoseconds(), Cycles: res.Breakdown.TotalCycles,
		BytesDRAM: res.Breakdown.BytesFromDRAM, BytesCPU: res.Breakdown.BytesToCPU,
	})
	return time.Since(t0)
}

// timeColumnarBuilds times colstore.FromTable on the table n times, each
// into a private arena so the measured database's address space is
// untouched, rescaled to the reference host speed.
func timeColumnarBuilds(tbl *rfabric.Table, n int) ([]float64, error) {
	out := make([]float64, 0, n)
	cal := newCalibration()
	for i := 0; i < n; i++ {
		arena, err := dram.NewArena(0, 64)
		if err != nil {
			return nil, err
		}
		cal.sample()
		t0 := time.Now()
		if _, err := colstore.FromTable(tbl, arena); err != nil {
			return nil, err
		}
		out = append(out, ms(time.Since(t0)))
	}
	for i, f := range cal.factors() {
		out[i] *= f
	}
	return out, nil
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers is the per-layer summary of the traced run's spans.
type layers struct {
	compileUs               float64 // summed over all query ops
	optimizeUs, sinkUs      []float64
	sourceUs                []float64
	execMs                  map[string][]float64 // by access path
	execAllocs              map[string][]float64
	executorMs              map[string][]float64 // by executor entry point
	executorAllocs          map[string][]float64
	serialJoinMs, parJoinMs float64 // RM-kind JoinExec vs PAR-kind ParallelJoinExec
}

// rescale multiplies each xs[i] by the host-speed factor of op ids[i].
func rescale(xs []float64, ids []int, factor map[int]float64) {
	for i := range xs {
		xs[i] *= factor[ids[i]]
	}
}

// summarize folds the spans into per-layer figures, each span's duration
// rescaled by its op's host-speed factor.
func summarize(spans []span, opKind map[int]rfabric.EngineKind, factor map[int]float64) *layers {
	l := &layers{execMs: map[string][]float64{}, execAllocs: map[string][]float64{},
		executorMs: map[string][]float64{}, executorAllocs: map[string][]float64{}}
	optimize := map[int]time.Duration{}
	for i := range spans {
		s := spans[i]
		s.End = s.Start + int64(float64(s.dur())*factor[s.Op])
		switch s.Name {
		case "sql.compile":
			l.compileUs += us(s.dur())
		case "engine.optimize":
			optimize[s.Op] += s.dur()
		case "engine.sink":
			l.sinkUs = append(l.sinkUs, us(s.dur()))
		case "engine.source":
			l.sourceUs = append(l.sourceUs, us(s.dur()))
		case "engine.exec":
			l.execMs[s.Path] = append(l.execMs[s.Path], ms(s.dur()))
			l.execAllocs[s.Path] = append(l.execAllocs[s.Path], float64(s.Allocs))
			if s.Executor == "join" || s.Executor == "parjoin" {
				l.executorMs[s.Executor] = append(l.executorMs[s.Executor], ms(s.dur()))
				l.executorAllocs[s.Executor] = append(l.executorAllocs[s.Executor], float64(s.Allocs))
			}
			switch {
			case s.Executor == "join" && opKind[s.Op] == rfabric.RM:
				l.serialJoinMs += ms(s.dur())
			case s.Executor == "parjoin" && opKind[s.Op] == rfabric.PAR:
				l.parJoinMs += ms(s.dur())
			}
		}
	}
	for _, d := range optimize {
		l.optimizeUs = append(l.optimizeUs, us(d))
	}
	return l
}
