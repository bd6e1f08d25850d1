package rfabric

import (
	"time"

	"rfabric/internal/engine"
	"rfabric/internal/fabric"
	"rfabric/internal/obs"
	"rfabric/internal/plan"
	"rfabric/internal/sql"
)

// Observability of the DB façade: each statement reports one queryEvent,
// and publish hands it to every attached sink — the metrics registry, the
// sliding windows, the statement store (pg_stat_statements-style, with
// feedback eviction), the slow-query log, and LastTrace. With nothing
// attached, or only disabled sinks, and no trace asked for, a statement
// pays a few atomic loads and builds no event.

// SetStatements attaches a statement-statistics store. Every subsequent SQL
// query records under its normalized fingerprint: calls, errors, modeled
// cycle and wall-clock histograms, rows, bytes per hierarchy level, the
// engine that ran, and the optimizer's estimated-vs-actual accuracy. Nil
// detaches.
func (db *DB) SetStatements(s *obs.StatStore) { db.stats = s }

// Statements returns the attached statement store (nil when none).
func (db *DB) Statements() *obs.StatStore { return db.stats }

// SetSlowThreshold arms the slow-query log: any SQL query whose modeled
// cycles exceed the threshold is captured — with its full EXPLAIN ANALYZE
// trace — into SlowLog. Zero disarms. The capture tracer charges no modeled
// cycles, so arming the log never perturbs results.
func (db *DB) SetSlowThreshold(cycles uint64) {
	db.mu.Lock()
	if db.slow == nil && cycles > 0 {
		db.slow = obs.NewSlowLog(0)
	}
	db.mu.Unlock()
	db.slowThreshold.Store(cycles)
}

// SlowLog returns the slow-query ring (nil until SetSlowThreshold arms it).
func (db *DB) SlowLog() *obs.SlowLog { return db.slow }

// stmtCtx is one observed statement from façade entry to its event: the
// statement's one wall-clock and heap-allocation bracket, its fingerprint,
// and the tracer its run threads through. A nil *stmtCtx means nothing
// observes the statement.
type stmtCtx struct {
	text   string
	norm   string
	fp     uint64
	record bool   // statement store enabled at entry
	slow   uint64 // armed slow threshold at entry
	keep   bool   // the caller asked for the trace: LastTrace stores it
	price  bool   // something reads the run's pricing: a tracer or the store

	tr *obs.Tracer   // the caller's tracer or the slow-capture tracer
	tl *obs.Timeline // hardware sampler WithTimeline asked for

	start time.Time
	alloc uint64 // heap-alloc mark

	// est prices what ran (nil when unpriced or unpriceable); act is the
	// probe (or only) scan's actuals.
	est *plan.Est
	act *plan.Act
}

// observe opens the statement's bracket. o is the traced caller's options
// (nil when untraced). Returns nil — the fast path — when the caller does
// not trace and no enabled sink would record the statement.
func (db *DB) observe(text string, o *traceOpts) *stmtCtx {
	record, slow := !db.stats.Disabled(), db.slowThreshold.Load()
	if o == nil && !record && slow == 0 && (db.reg == nil || db.reg.Disabled()) && !db.win.Enabled() {
		return nil
	}
	c := &stmtCtx{text: text, record: record, slow: slow, keep: o != nil}
	if record {
		c.norm, c.fp = sql.Fingerprint(text)
	}
	if o != nil || slow > 0 {
		c.tr = obs.NewTracer("query")
		c.tr.Root().SetAttr("sql", text)
	}
	if o != nil {
		c.tl = o.timeline(db)
	}
	c.price = record || c.tr != nil
	c.start, c.alloc = time.Now(), obs.HeapAllocBytes()
	return c
}

// tracer returns the tracer the run threads through (nil-safe).
func (c *stmtCtx) tracer() *obs.Tracer {
	if c == nil {
		return nil
	}
	return c.tr
}

// queryEvent is one statement's report, built once after the run and
// priceRun and read by every sink; the pricing stays on its stmtCtx.
type queryEvent struct {
	stmt  *stmtCtx
	kind  EngineKind
	table string // probe (or only) table; "" when compilation failed
	res   *Result
	err   error

	wallNanos  int64
	allocBytes uint64
	// hw is the shared System's counter movement over dispatch plus the
	// PAR morsel clones'; gc is the group cache's movement since the
	// previous event.
	hw engine.HWStats
	gc fabric.GroupCacheStats

	trace *Trace // nil when untraced or failed
}

// seal completes ev: it closes the statement's bracket, takes the group
// cache's movement since the previous event under gcMu, and finishes the
// run's trace.
func (db *DB) seal(c *stmtCtx, ev *queryEvent) *queryEvent {
	ev.stmt = c
	ev.wallNanos = time.Since(c.start).Nanoseconds()
	ev.allocBytes = obs.HeapAllocBytes() - c.alloc
	if gc := db.groupCache(); gc != nil {
		db.gcMu.Lock()
		cur := gc.Stats()
		ev.gc = cur.Delta(db.lastGC)
		db.lastGC = cur
		db.gcMu.Unlock()
	}
	if c.tr != nil && ev.err == nil {
		ev.trace = &Trace{
			Query:       c.text,
			Engine:      ev.res.Engine,
			TotalCycles: ev.res.Breakdown.TotalCycles,
			WallNanos:   ev.wallNanos,
			AllocBytes:  ev.allocBytes,
			Root:        c.tr.Root(),
			Timeline:    c.tl,
		}
	}
	return ev
}

// publish hands a statement's event to every sink, in a fixed order: the
// metrics registry, the sliding windows, the statement store and feedback
// eviction, the slow log, and LastTrace.
func (db *DB) publish(ev *queryEvent) {
	c, res := ev.stmt, ev.res
	var cycles uint64
	if res != nil {
		cycles = res.Breakdown.TotalCycles
	}

	if reg := db.reg; reg != nil && !reg.Disabled() {
		ls := obs.Labels{"engine": string(ev.kind), "table": ev.table}.Render()
		reg.CounterOf("rfabric_queries_total", ls).Add(1)
		if ev.err != nil {
			reg.CounterOf("rfabric_query_errors_total", ls).Add(1)
		} else {
			reg.CounterOf("rfabric_query_cycles_total", ls).Add(cycles)
			reg.HistogramOf("rfabric_query_cycles", ls).Observe(float64(cycles))
			reg.CounterOf("rfabric_rows_scanned_total", ls).Add(uint64(res.RowsScanned))
			reg.CounterOf("rfabric_rows_passed_total", ls).Add(uint64(res.RowsPassed))
			// Latency per resolved engine: AUTO and RM-routed-to-PAR queries
			// land under the engine that actually ran.
			reg.Histogram("rfabric_query_latency_cycles", obs.Labels{"engine": res.Engine}).Observe(float64(cycles))
			if res.Morsels > 0 {
				pls := obs.Labels{"table": ev.table}.Render()
				reg.CounterOf("rfabric_par_queries_total", pls).Add(1)
				reg.CounterOf("rfabric_par_morsels_total", pls).Add(uint64(res.Morsels))
				reg.CounterOf("rfabric_par_makespan_cycles_total", pls).Add(cycles)
				reg.HistogramOf("rfabric_par_morsel_cycles", pls).Observe(float64(cycles) / float64(res.Morsels))
			}
		}
		if ev.table != "" { // the statement compiled and dispatched
			ev.hw.Mem.Publish(reg, ls)
			ev.hw.Hier.Publish(reg, ls)
			ev.hw.Fab.Publish(reg, ls)
		}
		if db.groupCache() != nil {
			ev.gc.Publish(reg, "")
		}
	}

	ws := obs.WindowSample{
		Err:         ev.err != nil,
		WallNanos:   ev.wallNanos,
		AllocBytes:  ev.allocBytes,
		CacheLoads:  ev.hw.Hier.Loads,
		CacheMisses: ev.hw.Hier.DRAMFills,
		GroupHits:   ev.gc.Hits,
		GroupMisses: ev.gc.Misses,
	}
	if res != nil {
		ws.Cycles, ws.BytesDRAM, ws.BytesCPU = cycles, res.Breakdown.BytesFromDRAM, res.Breakdown.BytesToCPU
	}
	db.win.Record(ws)

	var rowsScan, rowsRet int64
	var engineName string
	if res != nil {
		rowsScan, engineName = res.RowsScanned, res.Engine
		switch {
		case len(res.Groups) > 0:
			rowsRet = int64(len(res.Groups))
		case len(res.Aggs) > 0:
			rowsRet = 1
		default:
			rowsRet = res.RowsPassed
		}
	}
	isSlow := c.slow > 0 && cycles > c.slow
	if c.record {
		sm := obs.StatSample{
			Fingerprint: c.fp,
			Text:        c.norm,
			Engine:      engineName,
			Err:         ev.err != nil,
			Slow:        isSlow,
			Cycles:      cycles,
			WallNanos:   ev.wallNanos,
			AllocBytes:  ev.allocBytes,
			RowsRet:     rowsRet,
			RowsScan:    rowsScan,
		}
		if res != nil {
			sm.BytesDRAM, sm.BytesCPU = res.Breakdown.BytesFromDRAM, res.Breakdown.BytesToCPU
		}
		if c.est != nil {
			sm.EstCycles = c.est.Cycles
			if c.act != nil && c.act.RowsScanned > 0 {
				sm.HasSel, sm.EstSelectivity, sm.ActSelectivity = true, c.est.Selectivity, c.act.Selectivity()
			}
		}
		db.stats.Record(sm)
		// Feedback eviction: a run whose pricing missed by more than the
		// armed q-error threshold drops the statement's cached plan, so the
		// next Prepare replans with observed-selectivity feedback.
		if ev.err == nil && sm.EstCycles > 0 && cycles > 0 {
			if th := db.feedbackThreshold(); th > 0 && plan.QError(sm.EstCycles, float64(cycles)) > th {
				db.evictPlan(c.fp)
			}
		}
	}

	if isSlow && db.slow != nil {
		db.slow.Add(obs.SlowEntry{
			Query:     c.text,
			Engine:    engineName,
			Cycles:    cycles,
			Threshold: c.slow,
			WallNanos: ev.wallNanos,
			RowsScan:  rowsScan,
			RowsRet:   rowsRet,
			Trace:     ev.trace,
		})
	}

	if c.keep && ev.trace != nil {
		db.last.Store(ev.trace)
	}
}
