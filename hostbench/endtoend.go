package main

import (
	"runtime"
	"sort"
	"time"

	"rfabric"
)

// setupReps is how many times a run sets its database up; setup_s is the
// median and the last database is the one measured.
const setupReps = 3

// runEndToEnd is the untraced run: one client goroutine drives the observed
// façade in a closed loop, op after op, for whole rounds until the time is
// up, and every result is checked against the ROW reference outside the
// timed region.
func runEndToEnd(w *workload, seconds float64) (*outcome, error) {
	out := newOutcome()
	var f *facade
	var sizes *cacheSizes
	var setupRaw, setupS []float64
	for i := 0; i < setupReps; i++ {
		f = nil
		runtime.GC() // the previous repetition's database is garbage now
		cal := newCalibration()
		for k := 0; k < calWindow; k++ {
			cal.sample()
		}
		start := time.Now()
		c, err := buildCatalog(w)
		if err != nil {
			return nil, err
		}
		if f, err = newFacade(c); err != nil {
			return nil, err
		}
		f.observe()
		if sizes, err = setup(w, f); err != nil {
			return nil, err
		}
		d := time.Since(start).Seconds()
		for k := 0; k < calWindow; k++ {
			cal.sample()
		}
		setupRaw = append(setupRaw, d)
		setupS = append(setupS, d*refKernelMs/median(cal.samples))
	}
	orc, err := newOracle(w)
	if err != nil {
		return nil, err
	}

	heap := newHeapCounters()
	cal := newCalibration()
	next := w.rounds()
	var opMs []float64 // raw duration of every op, in issue order
	var isInsert []bool
	var cell []string // query ops: statement/kind, for the per-cell medians
	var allocs, allocBytes, cycles uint64
	var queries, cycleQueries int
	start := time.Now()
	rounds := 0
	for ; rounds < w.maxRounds(); rounds++ {
		if rounds >= minRounds && time.Since(start).Seconds() >= seconds {
			break
		}
		for _, o := range next() {
			out.attempted++
			if o.insert {
				vals, err := rowValues(f.li, o.srcRow)
				if err != nil {
					out.fail(&o, err)
					continue
				}
				cal.sample()
				t0 := time.Now()
				err = f.insert(vals)
				opMs = append(opMs, ms(time.Since(t0)))
				isInsert = append(isInsert, true)
				if err == nil {
					err = orc.insert(vals)
				}
				if err != nil {
					out.fail(&o, err)
				}
				continue
			}
			if o.kind == rfabric.PAR {
				cal.sampleWide()
			} else {
				cal.sample()
			}
			n0, b0 := heap.read()
			t0 := time.Now()
			res, err := f.query(&o)
			d := time.Since(t0)
			n1, b1 := heap.read()
			opMs = append(opMs, ms(d))
			isInsert = append(isInsert, false)
			cell = append(cell, w.stmts[o.stmt].name+"/"+string(o.kind))
			queries++
			allocs += n1 - n0
			allocBytes += b1 - b0
			if err == nil {
				err = orc.check(o.text, res)
			}
			if err != nil {
				out.fail(&o, err)
				continue
			}
			if o.round < minRounds {
				cycles += res.Breakdown.TotalCycles
				cycleQueries++
			}
		}
	}
	elapsed := time.Since(start)

	orc = nil
	runtime.GC()
	live := liveHeapBytes()
	runtime.KeepAlive(f)

	var queryMs, rawQueryMs, insertUs []float64
	var busy float64
	cells := map[string][]float64{}
	for i, factor := range cal.factors() {
		d := opMs[i] * factor
		busy += d
		if isInsert[i] {
			insertUs = append(insertUs, d*1e3)
		} else {
			cells[cell[len(queryMs)]] = append(cells[cell[len(queryMs)]], d)
			queryMs = append(queryMs, d)
			rawQueryMs = append(rawQueryMs, opMs[i])
		}
	}

	p95 := quantile(queryMs, 0.95)
	out.put("setup_s", "s", median(setupS))
	out.put("query_ms_p50", "ms", median(queryMs))
	out.put("query_ms_p95", "ms", p95)
	out.put("ops_per_s", "1/s", float64(len(opMs))/(busy/1e3))
	out.put("allocs_per_query", "count", float64(allocs)/float64(queries))
	out.put("alloc_bytes_per_query", "bytes", float64(allocBytes)/float64(queries))
	out.put("live_heap_mb", "MB", float64(live)/(1<<20))
	out.put("modeled_cycles_per_query", "cycles", ratio(float64(cycles), float64(cycleQueries)))

	out.note("workload %s  seed %d  lineitem %d rows  nproc %d  GOMAXPROCS %d  %s",
		w.name, w.seed, lineitemRows, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	out.note("host times are rescaled to a %.2f ms calibration kernel; its median here was %.4f ms",
		refKernelMs, median(cal.samples))
	out.note("raw (unscaled): query_ms_p50 %.4f  query_ms_p95 %.4f  setup_s %v",
		median(rawQueryMs), quantile(rawQueryMs, 0.95), setupRaw)
	out.note("queries %d (%d beyond p95) over %d rounds in %.2f s",
		len(queryMs), countAbove(queryMs, p95), rounds, elapsed.Seconds())
	out.note("modeled_cycles_per_query averages the %d queries of the first %d rounds", cycleQueries, minRounds)
	if len(insertUs) > 0 {
		out.note("insert_us_p50 %.4f us over %d inserts", median(insertUs), len(insertUs))
	} else {
		out.note("insert_us_p50 n/a: the workload issues no inserts")
	}
	out.note("ops_failed_ratio %g (%d of %d ops)", ratio(float64(out.failed), float64(out.attempted)), out.failed, out.attempted)
	names := make([]string, 0, len(cells))
	for c := range cells {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, c := range names {
		out.note("cell %-18s median %9.3f ms over %d", c, median(cells[c]), len(cells[c]))
	}
	if sizes != nil {
		out.note("group cache: capacity %d bytes; hot groups %d bytes; all distinct groups %d bytes; per statement %v",
			sizes.capa, sizes.hot, sizes.all, sizes.group)
	}
	return out, nil
}

func countAbove(xs []float64, t float64) int {
	n := 0
	for _, x := range xs {
		if x > t {
			n++
		}
	}
	return n
}
