package rfabric

import (
	"strconv"
	"strings"

	"rfabric/internal/engine"
	"rfabric/internal/obs"
	"rfabric/internal/plan"
)

// Observability surface of the DB façade: a metrics registry every query
// publishes into, and per-query EXPLAIN ANALYZE traces whose span trees
// reconcile exactly with the modeled Breakdown.

// SetObserver attaches a metrics registry. Every subsequent query publishes
// rfabric_* series into it: per-query counters and cycle histograms keyed
// by engine kind and table, plus the DRAM, cache, and fabric counter deltas
// the run produced. A nil registry detaches the observer; reg.SetDisabled
// reduces publishing to a single atomic load per metric.
func (db *DB) SetObserver(reg *Registry) { db.reg = reg }

// Observer returns the attached registry (nil when none).
func (db *DB) Observer() *Registry { return db.reg }

// SetWindows attaches a sliding-window telemetry aggregator. Every
// subsequent statement folds its modeled cycles, bytes moved, cache
// traffic, real wall-clock, and heap-allocation delta into the current
// second's bucket — the rolling QPS/error-rate/p99 view /debug/windows.json
// serves. Nil detaches; a disabled aggregator costs the query path one
// atomic load.
func (db *DB) SetWindows(w *obs.Windows) { db.win = w }

// Windows returns the attached sliding-window aggregator (nil when none).
func (db *DB) Windows() *obs.Windows { return db.win }

// LastTrace returns the most recently captured query trace, or nil before
// the first traced query. The serve endpoint /debug/trace/last reads this.
func (db *DB) LastTrace() *Trace { return db.last.Load() }

// TraceOption configures a traced query.
type TraceOption func(*traceOpts)

type traceOpts struct {
	kind     EngineKind
	sample   bool
	interval uint64
}

// OnEngine routes the traced query to the chosen execution path instead of
// the default RM.
func OnEngine(kind EngineKind) TraceOption {
	return func(o *traceOpts) { o.kind = kind }
}

// WithTimeline additionally samples hardware state every everyCycles modeled
// cycles during the run — row-buffer hit rate, per-bank occupancy, cache
// miss ratio, fabric pipeline occupancy and stall, busy workers — and
// attaches the series to the returned Trace (and its Chrome-trace export).
// Zero means obs.DefaultTimelineInterval.
func WithTimeline(everyCycles uint64) TraceOption {
	return func(o *traceOpts) { o.sample = true; o.interval = everyCycles }
}

// QueryTraced is EXPLAIN ANALYZE: it parses, lowers, and executes the
// statement like Query, and additionally returns the span tree of the run —
// parse, plan (with the physical operator chain as one span per operator),
// engine dispatch, per-morsel execution, and merge — with per-node
// modeled cycles, DRAM bytes, cache miss ratios, and row-buffer hit rates.
// The root span's AttributedCycles reconciles exactly with
// Result.Breakdown.TotalCycles. The trace is also stored for LastTrace.
func (db *DB) QueryTraced(query string, opts ...TraceOption) (*Result, *Trace, error) {
	o := traceOpts{kind: RM}
	for _, opt := range opts {
		opt(&o)
	}
	return db.query(o.kind, query, db.observe(query, &o))
}

// timeline returns the hardware sampler WithTimeline asked for, or nil.
func (o traceOpts) timeline(db *DB) *obs.Timeline {
	if !o.sample {
		return nil
	}
	return obs.NewTimeline(o.interval, db.sys.Cfg.DRAM.Banks)
}

// tree returns the plan tree a traced run renders and stamps. A join's is
// its lowered plan, compiled for this run (Prepare rejects joins). A
// single-table chain is rebuilt from the query, because a prepared
// statement is shared between runs.
func (s *statement) tree() *plan.Node {
	if s.jp != nil {
		return s.root
	}
	return engine.PlanOf(s.q, s.t.tbl.Name())
}

// priceRun prices what a finished run did, for EXPLAIN ANALYZE and the
// statement store, and returns the statement's estimate and its probe (or
// only) scan's actuals. A single-table statement is priced for the access
// path that ran, under the conditions the run saw, and the pair is stamped
// onto the traced chain's Scan (tree is nil when untraced). A join's
// estimate is the sum of its sides' pricings, each stamped on its own Scan;
// its selectivities are the probe side's.
func (db *DB) priceRun(kind EngineKind, s *statement, tree *plan.Node, res *Result) (*plan.Est, *plan.Act) {
	if s.jp != nil {
		db.fillJoinEstimates(kind, s.jp)
		probe := s.jp.Probe.Node
		if probe.Est == nil {
			return nil, probe.Act
		}
		est := &plan.Est{Engine: res.Engine, Cycles: probe.Est.Cycles, Selectivity: probe.Est.Selectivity}
		for k := range s.jp.Stages {
			side := s.jp.Stages[k].Side.Node
			if side.Est == nil {
				return nil, probe.Act
			}
			est.Cycles += side.Est.Cycles
		}
		return est, probe.Act
	}
	est := db.estimateObserved(s.t, s.q, res.Engine, res.CacheWarm)
	act := &plan.Act{
		RowsScanned: res.RowsScanned,
		RowsPassed:  res.RowsPassed,
		Cycles:      res.Breakdown.TotalCycles,
	}
	if tree != nil {
		// The access path is only known after the run (AUTO prices it, RM
		// may route to PAR).
		scan := tree.Scan()
		scan.Source, scan.Offload, scan.Est, scan.Act = res.Engine, res.Offload, est, act
	}
	return est, act
}

// opSpan pairs an operator span with its plan node, so after the run each
// span can be annotated with the node's estimated-vs-actual numbers.
type opSpan struct {
	span *obs.Span
	node *plan.Node
}

// attachPlanSpans renders the plan tree under a plan.physical span, one
// nested span per physical operator, outermost first: the spine nests
// Input-wise, and each op.join span additionally parents its build side's
// [Filter]→Scan chain. The spans carry no cycles — they are the EXPLAIN
// structure; attribution stays on the execution spans — so the root's
// reconciliation is untouched.
func attachPlanSpans(parent *obs.Span, root *plan.Node, sch *Schema) []opSpan {
	var pairs []opSpan
	var attach func(sp *obs.Span, n *plan.Node)
	attach = func(sp *obs.Span, n *plan.Node) {
		cur := sp.AddChild("op." + strings.ToLower(n.Op.String()))
		cur.SetAttr("expr", n.Describe(sch))
		pairs = append(pairs, opSpan{cur, n})
		if n.Build != nil {
			attach(cur, n.Build)
		}
		if n.Input != nil {
			attach(cur, n.Input)
		}
	}
	attach(parent.AddChild("plan.physical"), root)
	return pairs
}

// annotatePlanSpans writes the estimated-vs-actual row counts onto the
// operator spans after a run: each Scan carries the pricing block stamped on
// its node (per side for joins), each Filter derives its rows from the Scan
// it filters, and the consumption operators report the rows they emitted.
// This is annotation only — spans gain attributes, never cycles, so the
// root's reconciliation with Breakdown.TotalCycles is untouched.
func annotatePlanSpans(pairs []opSpan, res *Result, sch *Schema) {
	f0 := func(v float64) string { return strconv.FormatFloat(v, 'f', 0, 64) }
	f3 := func(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }
	for _, p := range pairs {
		n, sp := p.node, p.span
		switch n.Op {
		case plan.OpScan:
			if n.Source != "" {
				sp.SetAttr("source", n.Source)
			}
			if n.Offload != "" {
				sp.SetAttr("offload", n.Offload)
			}
			if n.Est != nil {
				sp.SetAttr("est_rows", f0(n.Est.Rows))
				sp.SetAttr("est_cycles", f0(n.Est.Cycles))
			}
			if n.Act != nil {
				sp.SetAttr("act_rows", strconv.FormatInt(n.Act.RowsScanned, 10))
				sp.SetAttr("act_cycles", strconv.FormatUint(n.Act.Cycles, 10))
			}
			if n.Est != nil && n.Act != nil {
				sp.SetAttr("q_error", strconv.FormatFloat(
					plan.QError(n.Est.Cycles, float64(n.Act.Cycles)), 'f', 2, 64))
			}
			// Re-render the EXPLAIN line so the pricing block shows up in
			// the span tree exactly as Explain would print it.
			sp.SetAttr("expr", n.Describe(sch))
		case plan.OpFilter:
			// A Filter's rows in/out are its Scan's scanned/passed counts.
			if s := n.Input; s != nil && s.Op == plan.OpScan {
				if s.Est != nil {
					sp.SetAttr("est_rows", f0(s.Est.EstRowsOut()))
					sp.SetAttr("est_sel", f3(s.Est.Selectivity))
				}
				if s.Act != nil {
					sp.SetAttr("act_rows", strconv.FormatInt(s.Act.RowsPassed, 10))
					sp.SetAttr("act_sel", f3(s.Act.Selectivity()))
				}
			}
		case plan.OpProject:
			sp.SetAttr("act_rows", strconv.FormatInt(res.RowsPassed, 10))
		case plan.OpAggregate, plan.OpOrderBy, plan.OpLimit:
			sp.SetAttr("act_rows", strconv.Itoa(len(res.Groups)))
		}
	}
}

// estimateObserved prices access path eng for q on t under the conditions
// the planner saw. warm consults the group cache; pass it only when the run
// really replayed a warm group, since pricing after the run would otherwise
// see the group the run itself just installed, mislabel a cold run as warm,
// and misreport its q-error. Returns nil when the path cannot be priced
// (e.g. IDX with no usable index).
func (db *DB) estimateObserved(t *dbTable, q engine.Query, eng string, warm bool) *plan.Est {
	opt := db.optimizer(t)
	opt.Offload = db.offloadOn()
	if warm {
		opt.Cache = db.groupCache()
	}
	e, ok := opt.EstimateFor(eng, q)
	if !ok {
		return nil
	}
	return &e
}

// fillJoinEstimates prices any join side still missing an estimate after a
// run (AUTO stamps its own during pricing), cold. Each side is priced for
// the access path it actually got — its Scan node's stamped Source — so
// sides that fell back (IDX without a usable index runs ROW) and paths only
// priceable after the run (the first COL query materializes the columnar
// copy it is priced against) still report estimated-vs-actual.
func (db *DB) fillJoinEstimates(kind EngineKind, jp *engine.JoinPlan) {
	fill := func(side *engine.JoinSide) {
		if side.Node == nil || side.Node.Est != nil {
			return
		}
		t, err := db.lookup(side.Table)
		if err != nil {
			return
		}
		eng := side.Node.Source
		if eng == "" {
			eng = string(kind)
		}
		side.Node.Est = db.estimateObserved(t, side.Query, eng, false)
	}
	fill(&jp.Probe)
	for k := range jp.Stages {
		fill(&jp.Stages[k].Side)
	}
}

// ExplainPlan parses and lowers the statement and returns its physical plan
// chain — EXPLAIN without ANALYZE. The Scan's source renders as "?" until a
// run prices it (or the caller stamps Scan().Source).
func (db *DB) ExplainPlan(query string) (*plan.Node, error) {
	s, err := db.compile(query, nil)
	if err != nil {
		return nil, err
	}
	return s.root, nil
}

// Explain renders the physical plan for a statement as an indented operator
// tree, the same shape QueryTraced attaches under plan.physical.
func (db *DB) Explain(query string) (string, error) {
	s, err := db.compile(query, nil)
	if err != nil {
		return "", err
	}
	return s.root.Explain(s.t.tbl.Schema()), nil
}
