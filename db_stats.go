package rfabric

import (
	"time"

	"rfabric/internal/obs"
	"rfabric/internal/plan"
	"rfabric/internal/sql"
)

// Statement-statistics surface of the DB façade: a pg_stat_statements-style
// store fed by every SQL entry point (Query, QueryOn, QueryTraced,
// Prepared.Run), and a slow-query log capturing full traces for outliers.
// The off-path contract matches the metrics registry's: with no store
// attached (or a disabled one) and no slow threshold, a query pays two
// atomic loads and zero allocations for this whole subsystem —
// fingerprinting itself is gated behind those loads.

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

// slowCycles is the armed threshold (0 = off), readable off the hot path.
func (db *DB) slowCycles() uint64 { return db.slowThreshold.Load() }

// stmtCtx carries one statement's recording state from parse to finish. A
// nil *stmtCtx (recording fully off) no-ops every method.
type stmtCtx struct {
	query      string
	norm       string
	fp         uint64
	start      time.Time
	allocStart uint64      // heap-alloc mark, for the per-query alloc delta
	record     bool        // statement store enabled at begin time
	slow       uint64      // armed threshold at begin time
	tr         *obs.Tracer // slow-capture tracer; nil when the caller traces

	est    *plan.Est // access-path estimate for the engine that ran
	actSel float64
	hasSel bool
}

// beginStatement opens per-statement recording. Returns nil — the
// zero-overhead path — unless the statement store is enabled or the slow
// log is armed. wantTracer attaches a capture tracer for the slow log;
// callers that already trace pass false and hand finish their own trace.
func (db *DB) beginStatement(query string, wantTracer bool) *stmtCtx {
	record := !db.stats.Disabled()
	slow := db.slowCycles()
	if !record && slow == 0 {
		return nil
	}
	c := &stmtCtx{query: query, record: record, slow: slow, start: time.Now()}
	if record {
		c.norm, c.fp = sql.Fingerprint(query)
		c.allocStart = obs.HeapAllocBytes()
	}
	if slow > 0 && wantTracer {
		c.tr = obs.NewTracer("query")
		c.tr.Root().SetAttr("sql", query)
	}
	return c
}

// tracer returns the slow-capture tracer to thread into the run (nil-safe;
// nil when capture is off or the caller traces already).
func (c *stmtCtx) tracer() *obs.Tracer {
	if c == nil {
		return nil
	}
	return c.tr
}

// note records a finished run's estimated-vs-actual pair: the pricing of
// what ran and the observed selectivity of its probe (or only) scan.
func (c *stmtCtx) note(est *plan.Est, act *plan.Act) {
	if c == nil {
		return
	}
	c.est = est
	if act != nil && act.RowsScanned > 0 {
		c.actSel = act.Selectivity()
		c.hasSel = est != nil
	}
}

// finish folds the statement into the store and, when it crossed the slow
// threshold, into the slow log with the run's trace (QueryTraced's own, or
// the capture tracer's).
func (c *stmtCtx) finish(db *DB, res *Result, err error, trace *Trace) {
	if c == nil {
		return
	}
	var cycles uint64
	var rowsScan, rowsRet int64
	var engineName string
	if res != nil {
		cycles = res.Breakdown.TotalCycles
		rowsScan = res.RowsScanned
		engineName = res.Engine
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
			Err:         err != nil,
			Slow:        isSlow,
			Cycles:      cycles,
			WallNanos:   time.Since(c.start).Nanoseconds(),
			AllocBytes:  obs.HeapAllocBytes() - c.allocStart,
			RowsRet:     rowsRet,
			RowsScan:    rowsScan,
		}
		if res != nil {
			sm.BytesDRAM = res.Breakdown.BytesFromDRAM
			sm.BytesCPU = res.Breakdown.BytesToCPU
		}
		if c.est != nil {
			sm.EstCycles = c.est.Cycles
		}
		if c.hasSel {
			sm.HasSel = true
			sm.EstSelectivity = c.est.Selectivity
			sm.ActSelectivity = c.actSel
		}
		db.stats.Record(sm)

		// Feedback eviction: when the run's pricing missed by more than
		// the armed q-error threshold, drop the statement's cached plan so
		// the next preparation replans with observed-selectivity feedback.
		if err == nil && sm.EstCycles > 0 && cycles > 0 {
			if th := db.feedbackThreshold(); th > 0 &&
				plan.QError(sm.EstCycles, float64(cycles)) > th {
				db.evictPlan(c.fp)
			}
		}
	}

	if isSlow && db.slow != nil {
		db.slow.Add(obs.SlowEntry{
			Query:     c.query,
			Engine:    engineName,
			Cycles:    cycles,
			Threshold: c.slow,
			WallNanos: time.Since(c.start).Nanoseconds(),
			RowsScan:  rowsScan,
			RowsRet:   rowsRet,
			Trace:     trace,
		})
	}
}
