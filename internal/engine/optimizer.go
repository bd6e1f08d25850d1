package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"rfabric/internal/colstore"
	"rfabric/internal/expr"
	"rfabric/internal/fabric"
	"rfabric/internal/index"
	"rfabric/internal/plan"
	"rfabric/internal/table"
)

// The paper argues Relational Fabric turns query optimization from a
// combinatorial search over materialized layouts into *construction*: since
// any geometry is available on demand, the optimizer merely prices the
// access paths and takes the cheapest (§III-B "instead of solving a
// combinatorial problem, we can now construct the fastest solution"). This
// file implements that constructive optimizer. The simulator is the cost
// model: ROW, COL and RM (and PAR, priced as RM) are priced by running that
// path's own Source over the table's first sampleRows rows on a fresh
// machine and scaling the run's cycles to the table; the selectivity is the
// one the run observed. IDX keeps a formula over the candidates its B+tree
// counts in the selection's key range, because a tree descent is a
// per-query cost a row sample cannot scale.

// Plan is the optimizer's decision.
type Plan struct {
	Chosen    string
	Estimates []plan.Est // sorted by predicted cycles, available paths first
}

// Optimizer prices access paths for one table on one system configuration.
type Optimizer struct {
	Tbl *table.Table
	Sys *System
	// Store is the columnar copy, if one happens to exist. COL is priced
	// only when it does; the sample runs over a columnar copy of its rows.
	Store *colstore.Store
	// Index is a B+tree over one of the table's columns, if one exists.
	Index *index.BTree
	// SelOverride is inert: every path prices its own rows (IDX counts its
	// key range exactly). The field stays only because the frozen façade
	// benchmark's shadow (hostbench) still sets it; ROADMAP item 4 removes
	// its last user.
	SelOverride float64
	// Cache, when set, lets RM price a resident column group as warm: the
	// producer streams packed bytes out of the persistent buffer instead
	// of gathering from DRAM. Nil always prices cold.
	Cache *fabric.GroupCache
	// Offload prices RM as the DB runs it with the offload layer on: the
	// sample runs on an RMEngine with Offload set, so pricing and dispatch
	// share every offload decision.
	Offload bool
}

// Choose prices every path and returns the constructed plan.
func (o *Optimizer) Choose(q Query) (*Plan, error) {
	if o.Tbl == nil || o.Sys == nil {
		return nil, errors.New("engine: optimizer needs a table and a system")
	}
	if err := q.Validate(o.Tbl.Schema()); err != nil {
		return nil, err
	}
	ests := make([]plan.Est, 0, 4)
	for _, path := range [...]string{"ROW", "COL", "RM", "IDX"} {
		ests = append(ests, o.estimate(path, q))
	}
	sort.Slice(ests, func(i, j int) bool {
		if ests[i].Available != ests[j].Available {
			return ests[i].Available
		}
		return ests[i].Cycles < ests[j].Cycles
	})
	if !ests[0].Available {
		return nil, errors.New("engine: no access path available")
	}
	return &Plan{Chosen: ests[0].Engine, Estimates: ests}, nil
}

// EstimateFor prices one specific access path — the counterpart of Choose
// for runs where the caller (not the optimizer) picked the engine, so
// EXPLAIN ANALYZE and the statement store can still report estimated-vs-
// actual for ROW/COL/RM/IDX/PAR runs. PAR prices as RM: the optimizer
// prices the access path (where the bytes come from), not the parallel
// schedule, so PAR's q-error exposes exactly the speedup the
// morsel executor achieves over the single-stream model. AUTO returns the
// cheapest path, as Choose would.
func (o *Optimizer) EstimateFor(engine string, q Query) (plan.Est, bool) {
	if o.Tbl == nil || o.Sys == nil {
		return plan.Est{}, false
	}
	if err := q.Validate(o.Tbl.Schema()); err != nil {
		return plan.Est{}, false
	}
	if engine == "AUTO" {
		p, err := o.Choose(q)
		if err != nil {
			return plan.Est{}, false
		}
		return p.Estimates[0], true
	}
	e := o.estimate(engine, q)
	return e, e.Available
}

// estimate prices one access path for q and records the input cardinality
// the pricing saw. PAR prices as RM under its own name.
func (o *Optimizer) estimate(engine string, q Query) plan.Est {
	var e plan.Est
	switch engine {
	case "ROW", "COL", "RM", "PAR":
		e = o.estimateSampled(engine, q)
	case "IDX":
		e = o.estimateIDX(q)
	default:
		return plan.Est{Engine: engine, Reason: "the optimizer does not price this path"}
	}
	e.Rows = float64(o.Tbl.NumRows())
	return e
}

// estimateSampled prices ROW, COL or RM (PAR as RM) from the path's sample
// run, scaled from the sample's rows to the table's. A warm RM estimate
// replaces the run's producer with the resident group's replay, chunk by
// chunk as ReplayChunk charges it, against the consumer the sample
// measured.
func (o *Optimizer) estimateSampled(engine string, q Query) plan.Est {
	path := engine
	if path == "PAR" {
		path = "RM"
	}
	if path == "COL" {
		if o.Store == nil {
			return plan.Est{Engine: engine,
				Reason: "no columnar copy exists (the duplication Relational Fabric removes)"}
		}
		if q.Snapshot != nil {
			return plan.Est{Engine: engine, Reason: "columnar copy has no version history"}
		}
	}
	sp := o.Sys.price(o.Tbl, q, path, o.Offload && path == "RM")
	if sp.err != nil {
		return plan.Est{Engine: engine, Reason: sp.err.Error()}
	}
	scale := 0.0
	if sp.rows > 0 {
		scale = float64(o.Tbl.NumRows()) / float64(sp.rows)
	}
	e := plan.Est{Engine: engine, Cycles: sp.cycles*scale + sp.fold, Selectivity: sp.sel,
		Available: true, Offloaded: sp.offloaded}
	if path != "RM" || o.Cache == nil || sp.offloaded {
		return e
	}
	rp, err := (&RMEngine{Tbl: o.Tbl, Offload: o.Offload}).scanPlan(&q)
	if err != nil {
		return e
	}
	if chunks, ok := o.Cache.Peek(o.Tbl, rp.geom, q.Snapshot, rp.pushed); ok {
		var producer uint64
		for _, ch := range chunks {
			producer += o.Sys.Cfg.Fabric.ReplayCycles(ch.Len)
		}
		e.Cycles, e.Warm = max(sp.consumer*scale, float64(producer)), true
	}
	return e
}

// sampleRows is how many leading rows of a table a sample run prices, and
// priceMemoCap how many prices a System keeps (a full memo starts over).
const sampleRows, priceMemoCap = 1024, 1024

// samplePrice is one access path's run over a table's first rows rows.
type samplePrice struct {
	rows      int
	cycles    float64 // the run's modeled cycles, fold excluded
	fold      float64 // an offloaded aggregation's final fold: one per result, so it grows with the groups, not the rows
	consumer  float64 // the CPU side: compute plus the memory latency exposed
	sel       float64 // rows passed per row scanned
	offloaded bool    // the fabric ran the whole aggregation
	err       error
}

// priceMemo memoizes sample prices per table and (sample size, path,
// offload, query). A price is a pure function of these, so it never
// depends on when it was computed: appends leave a table's first rows as
// they are and change only the row count the price is scaled to.
type priceMemo struct {
	mu  sync.Mutex
	m   map[priceKey]samplePrice
	buf []byte // the lookup key's bytes, reused under mu
}

type priceKey struct {
	tbl *table.Table
	key string // appendPriceKey's encoding
}

// price returns path's sample price for q over tbl, running the sample on
// a miss. The run never touches s: it builds its own machine from s.Cfg.
func (s *System) price(tbl *table.Table, q Query, path string, offload bool) samplePrice {
	q.Sinks = Sinks{} // they charge nothing inside a run
	m := min(tbl.NumRows(), sampleRows)
	memo := &s.prices
	memo.mu.Lock()
	defer memo.mu.Unlock()
	memo.buf = appendPriceKey(memo.buf[:0], m, path, offload, &q)
	if sp, ok := memo.m[priceKey{tbl, string(memo.buf)}]; ok {
		return sp
	}
	sp, err := runSample(s.Cfg, tbl, m, q, path, offload)
	sp.err = err
	if memo.m == nil || len(memo.m) >= priceMemoCap {
		memo.m = map[priceKey]samplePrice{}
	}
	memo.m[priceKey{tbl, string(memo.buf)}] = sp
	return sp
}

// runSample runs q on path over tbl's first m rows, on a cold machine built
// from cfg whose arena starts right after those rows. COL runs over a
// columnar copy of the sample, RM with the given offload setting.
func runSample(cfg SystemConfig, tbl *table.Table, m int, q Query, path string, offload bool) (samplePrice, error) {
	sp := samplePrice{rows: m}
	view, err := tbl.Slice(0, m)
	if err != nil {
		return sp, err
	}
	sys, err := newSystemAt(cfg, tbl.RowAddr(m))
	if err != nil {
		return sp, err
	}
	var src Source = &RMEngine{Tbl: view, Sys: sys, Offload: offload}
	switch path {
	case "ROW":
		src = &RowEngine{Tbl: view, Sys: sys}
	case "COL":
		store, err := colstore.FromTable(view, sys.Arena)
		if err != nil {
			return sp, err
		}
		src = &ColEngine{Store: store, Sys: sys}
	}
	res, err := Run(src, q)
	if err != nil {
		return sp, err
	}
	b := res.Breakdown
	sp.consumer = float64(b.ComputeCycles + b.MemDemandCycles)
	if res.RowsScanned > 0 {
		sp.sel = float64(res.RowsPassed) / float64(res.RowsScanned)
	}
	if sp.offloaded = res.Offload != ""; sp.offloaded {
		sp.fold = float64(cfg.Fabric.FoldCycles(sys.Fab.Stats().Aggregates))
	}
	sp.cycles = float64(b.TotalCycles) - sp.fold
	return sp, nil
}

// appendPriceKey encodes what a sample price depends on besides its table:
// the path (ROW, COL and RM: no name prefixes another), the sample size,
// offload, and every part of q a run reads, each list length-prefixed, so
// distinct inputs never share a key.
func appendPriceKey(b []byte, m int, path string, offload bool, q *Query) []byte {
	u := func(vs ...uint64) {
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
	}
	ints := func(xs []int) {
		u(uint64(len(xs)))
		for _, x := range xs {
			u(uint64(x))
		}
	}
	off := uint64(0)
	if offload {
		off = 1
	}
	b = append(b, path...)
	u(off, uint64(m), uint64(len(q.Selection)))
	for _, p := range q.Selection {
		v := p.Operand
		u(uint64(p.Col), uint64(p.Op), uint64(v.Type), uint64(v.Int), math.Float64bits(v.Float), uint64(len(v.Bytes)))
		b = append(b, v.Bytes...)
	}
	ints(q.Projection)
	ints(q.GroupBy)
	u(uint64(len(q.Aggregates)))
	for _, a := range q.Aggregates {
		b = appendScalar(append(b, byte(a.Kind)), a.Arg)
	}
	if q.Snapshot != nil {
		u(*q.Snapshot)
	}
	return b
}

// appendScalar encodes an aggregate argument's expression tree in prefix
// order (nil is COUNT(*)).
func appendScalar(b []byte, s expr.Scalar) []byte {
	switch s := s.(type) {
	case nil:
		return append(b, 0)
	case expr.ColRef:
		return binary.AppendUvarint(append(b, 1), uint64(s.Col))
	case expr.Const:
		return binary.AppendUvarint(append(b, 2), math.Float64bits(s.V))
	case expr.Binary:
		return appendScalar(appendScalar(append(b, 3, byte(s.Op)), s.L), s.R)
	}
	return fmt.Appendf(append(b, 4), "%T%#v;", s, s)
}

// String renders the plan for diagnostics.
func (p *Plan) String() string {
	s := "plan: " + p.Chosen
	for _, e := range p.Estimates {
		if e.Available {
			s += fmt.Sprintf(" | %s≈%.0f sel=%.3f", e.Engine, e.Cycles, e.Selectivity)
			if e.Warm {
				s += " warm"
			}
			if e.Offloaded {
				s += " offload"
			}
		} else {
			s += fmt.Sprintf(" | %s(unavailable)", e.Engine)
		}
	}
	return s
}
