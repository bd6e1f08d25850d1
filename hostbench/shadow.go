package main

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"rfabric"
	"rfabric/internal/colstore"
	"rfabric/internal/engine"
	"rfabric/internal/fabric"
	"rfabric/internal/geometry"
	"rfabric/internal/index"
	"rfabric/internal/obs"
	"rfabric/internal/sql"
	"rfabric/internal/table"
)

// span is one timed layer call of the traced run. Spans of one op share Op;
// Parent indexes the enclosing span (-1 for the op's root).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Path is the access path an engine.exec span ran on (row, col, rm,
	// idx, par; a join's probe path), Executor the entry point called.
	Path     string `json:"path,omitempty"`
	Executor string `json:"executor,omitempty"`
	Allocs   uint64 `json:"allocs,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps the traced run's spans in memory. A nil recorder records
// nothing, so set-up ops run untraced.
type recorder struct {
	t0    time.Time
	op    int
	spans []span
	stack []int
}

func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Op: r.op, Parent: parent, Start: int64(time.Since(r.t0))})
	i := len(r.spans) - 1
	r.stack = append(r.stack, i)
	return i
}

func (r *recorder) end(i int) {
	if r == nil || i < 0 {
		return
	}
	r.spans[i].End = int64(time.Since(r.t0))
	r.stack = r.stack[:len(r.stack)-1]
}

// shadowTable is the dispatcher's catalog entry: the façade's dbTable.
type shadowTable struct {
	tbl        *table.Table
	idx        *index.BTree
	col        *colstore.Store
	colVersion uint64
}

// compiled is one statement after parse, lower and plan extraction.
type compiled struct {
	table string
	q     engine.Query
	jp    *engine.JoinPlan
	sk    engine.Sinks
}

// dispatch describes what the last query resolved to, for the per-layer
// counters: the query the RM view measurement configures, and whether the
// run went through the morsel-parallel executor.
type dispatch struct {
	table string
	q     engine.Query
	path  string
	par   bool
}

// shadow is the benchmark's own layer-by-layer dispatch: the same calls
// DB.QueryOn / Prepared.Run make — compile (sql.Parse, sql.Lower or
// sql.LowerCatalog, engine.FromPlan or engine.FromJoinPlan), optimize
// (Optimizer.ChoosePlan), build the Source, execute (engine.Run,
// ParallelEngine.Execute, JoinExec.Execute, ParallelJoinExec.Execute),
// apply sinks — made from outside the façade over an identically built
// database, each call timed as a span. The decomposition check holds its
// results and modeled cycles equal to the façade's.
type shadow struct {
	db      *rfabric.DB
	sys     *engine.System
	tables  map[string]*shadowTable
	gcache  *fabric.GroupCache
	offload bool
	// feedback is the statement store AUTO reads observed selectivities
	// from when the group cache is on: the observed façade's, so both
	// plan with the same history.
	feedback *obs.StatStore
	frags    map[string]*compiled
	heap     *heapCounters

	rec       *recorder
	last      dispatch
	colBuilds int
}

func newShadow(c *catalog, offload bool) (*shadow, error) {
	s := &shadow{db: c.db, sys: c.db.System(), tables: map[string]*shadowTable{},
		offload: offload, frags: map[string]*compiled{}, heap: newHeapCounters()}
	for _, name := range c.db.TableNames() {
		tbl, err := c.db.Table(name)
		if err != nil {
			return nil, err
		}
		s.tables[name] = &shadowTable{tbl: tbl}
	}
	if c.idx != nil {
		s.tables["lineitem"].idx = c.idx
	}
	return s, nil
}

func (s *shadow) lookup(name string) (*shadowTable, error) {
	t, ok := s.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", rfabric.ErrNoSuchTable, name)
	}
	return t, nil
}

func (s *shadow) schemaLookup(name string) (*geometry.Schema, error) {
	t, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	return t.tbl.Schema(), nil
}

func (s *shadow) lineitem() *table.Table { return s.tables["lineitem"].tbl }

func (s *shadow) setGroupCache(capacity int64) {
	s.gcache = fabric.NewGroupCache(capacity, s.sys.Arena)
}

func (s *shadow) groupCacheStats() fabric.GroupCacheStats { return s.gcache.Stats() }

// insert goes through the façade's Insert (row append and index
// maintenance on the shared System) and then drops what the façade's
// Insert drops in its private state: the columnar copy, resident column
// groups, and compiled fragments.
func (s *shadow) insert(vals []table.Value) error {
	if err := s.db.Insert("lineitem", vals...); err != nil {
		return err
	}
	t := s.tables["lineitem"]
	t.col = nil
	s.gcache.Invalidate(t.tbl)
	clear(s.frags)
	return nil
}

func (s *shadow) compile(text string) (*compiled, error) {
	sp := s.rec.begin("sql.compile")
	defer s.rec.end(sp)
	st, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	if len(st.Joins) > 0 {
		root, err := sql.LowerCatalog(st, s.schemaLookup)
		if err != nil {
			return nil, err
		}
		jp, sk, err := engine.FromJoinPlan(root, s.schemaLookup)
		if err != nil {
			return nil, err
		}
		return &compiled{jp: jp, sk: sk}, nil
	}
	t, err := s.lookup(st.Table)
	if err != nil {
		return nil, err
	}
	root, err := sql.Lower(st, t.tbl.Schema())
	if err != nil {
		return nil, err
	}
	q, sk, err := engine.FromPlan(root)
	if err != nil {
		return nil, err
	}
	return &compiled{table: st.Table, q: q, sk: sk}, nil
}

func (s *shadow) query(o *op) (*engine.Result, error) {
	if s.rec != nil {
		s.rec.op = o.id
	}
	root := s.rec.begin("op")
	defer s.rec.end(root)
	s.last = dispatch{}

	// A prepared op reuses its fragment until a write invalidates it, as
	// the façade's plan cache does; join fragments are never cached.
	c := s.frags[o.text]
	if !o.prepared || c == nil {
		var err error
		if c, err = s.compile(o.text); err != nil {
			return nil, err
		}
		if o.prepared && c.jp == nil {
			s.frags[o.text] = c
		}
	}
	var res *engine.Result
	var err error
	if c.jp != nil {
		res, err = s.executeJoin(o.kind, c.jp)
	} else {
		var t *shadowTable
		if t, err = s.lookup(c.table); err != nil {
			return nil, err
		}
		var fp uint64
		if s.gcache != nil && !s.feedback.Disabled() {
			_, fp = sql.Fingerprint(o.text)
		}
		s.last.table, s.last.q = c.table, c.q
		res, err = s.execute(o.kind, t, c.q, fp)
	}
	if err != nil || c.sk.Empty() {
		return res, err
	}
	sp := s.rec.begin("engine.sink")
	engine.ApplySinks(res, c.sk)
	s.rec.end(sp)
	return res, nil
}

// run times one executor call, with its heap-allocation delta.
func (s *shadow) run(path, executor string, call func() (*engine.Result, error)) (*engine.Result, error) {
	s.last.path = path
	s.last.par = executor == "parallel" || executor == "parjoin"
	sp := s.rec.begin("engine.exec")
	var a0 uint64
	if sp >= 0 {
		a0, _ = s.heap.read()
	}
	res, err := call()
	if sp >= 0 {
		a1, _ := s.heap.read()
		s.rec.spans[sp].Path, s.rec.spans[sp].Executor, s.rec.spans[sp].Allocs = path, executor, a1-a0
	}
	s.rec.end(sp)
	return res, err
}

// execute mirrors the façade's single-table dispatch.
func (s *shadow) execute(kind rfabric.EngineKind, t *shadowTable, q engine.Query, fp uint64) (*engine.Result, error) {
	switch kind {
	case rfabric.AUTO:
		sp := s.rec.begin("engine.optimize")
		opt := &engine.Optimizer{Tbl: t.tbl, Sys: s.sys, Store: t.col, Index: t.idx,
			Cache: s.gcache, Offload: s.offload}
		root := engine.PlanOf(q, t.tbl.Name())
		if opt.Cache != nil {
			if sel, ok := s.feedback.FeedbackSelectivity(fp); ok {
				opt.SelOverride = sel
			}
		}
		p, err := opt.ChoosePlan(root)
		s.rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("optimizing query: %w", err)
		}
		return s.execute(rfabric.EngineKind(p.Chosen), t, q, fp)
	case rfabric.PAR:
		e := &engine.ParallelEngine{Tbl: t.tbl, Sys: s.sys}
		return s.run("par", "parallel", func() (*engine.Result, error) { return e.Execute(q) })
	}
	sp := s.rec.begin("engine.source")
	src, err := s.source(kind, t)
	s.rec.end(sp)
	if err != nil {
		return nil, err
	}
	return s.run(strings.ToLower(src.Name()), "run", func() (*engine.Result, error) { return engine.Run(src, q) })
}

func (s *shadow) source(kind rfabric.EngineKind, t *shadowTable) (engine.Source, error) {
	switch kind {
	case rfabric.RM:
		return &engine.RMEngine{Tbl: t.tbl, Sys: s.sys, Cache: s.gcache, Offload: s.offload}, nil
	case rfabric.ROW:
		return &engine.RowEngine{Tbl: t.tbl, Sys: s.sys}, nil
	case "IDX":
		if t.idx == nil {
			return nil, errors.New("no index on this table")
		}
		return &engine.IndexEngine{Tbl: t.tbl, Sys: s.sys, Idx: t.idx}, nil
	case rfabric.COL:
		store, err := s.columnarCopy(t)
		if err != nil {
			return nil, err
		}
		return &engine.ColEngine{Store: store, Sys: s.sys}, nil
	}
	return nil, fmt.Errorf("%w %q", rfabric.ErrUnknownEngine, string(kind))
}

// columnarCopy rebuilds the table's columnar copy when it is missing or
// stale, at the same point of the arena allocation order as the façade.
func (s *shadow) columnarCopy(t *shadowTable) (*colstore.Store, error) {
	if t.col != nil && t.colVersion == t.tbl.Version() {
		return t.col, nil
	}
	sp := s.rec.begin("colstore.build")
	defer s.rec.end(sp)
	ver := t.tbl.Version()
	store, err := colstore.FromTable(t.tbl, s.sys.Arena)
	if err != nil {
		return nil, fmt.Errorf("materializing columnar copy: %w", err)
	}
	t.col, t.colVersion = store, ver
	if s.rec != nil {
		s.colBuilds++
	}
	return store, nil
}

// executeJoin mirrors the façade's join dispatch: per-side pricing under
// AUTO, the morsel-parallel probe for PAR, the serial JoinExec otherwise.
func (s *shadow) executeJoin(kind rfabric.EngineKind, p *engine.JoinPlan) (*engine.Result, error) {
	probeT, err := s.lookup(p.Probe.Table)
	if err != nil {
		return nil, err
	}
	buildTs := make([]*shadowTable, len(p.Stages))
	for k := range p.Stages {
		if buildTs[k], err = s.lookup(p.Stages[k].Side.Table); err != nil {
			return nil, err
		}
	}
	s.last.table, s.last.q = p.Probe.Table, p.Probe.Query

	probeKind := kind
	buildKinds := make([]rfabric.EngineKind, len(p.Stages))
	for k := range buildKinds {
		buildKinds[k] = kind
	}
	if kind == rfabric.AUTO {
		sp := s.rec.begin("engine.optimize")
		probeKind, err = s.priceSide(probeT, &p.Probe)
		for k := 0; err == nil && k < len(p.Stages); k++ {
			buildKinds[k], err = s.priceSide(buildTs[k], &p.Stages[k].Side)
		}
		s.rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("optimizing join: %w", err)
		}
	}

	if probeKind == rfabric.PAR {
		for k := range buildKinds {
			if buildKinds[k] == rfabric.PAR {
				buildKinds[k] = rfabric.RM
			}
		}
		builds, err := s.buildSources(buildKinds, buildTs, p)
		if err != nil {
			return nil, err
		}
		if p.Probe.Node != nil {
			p.Probe.Node.Source = string(rfabric.PAR)
		}
		e := &engine.ParallelJoinExec{Plan: p, ProbeTbl: probeT.tbl, Sys: s.sys, Builds: builds, Offload: s.offload}
		return s.run("par", "parjoin", e.Execute)
	}

	sp := s.rec.begin("engine.source")
	probe, err := s.joinSource(probeKind, probeT, &p.Probe)
	var builds []engine.Source
	if err == nil {
		builds, err = s.buildSources(buildKinds, buildTs, p)
	}
	s.rec.end(sp)
	if err != nil {
		return nil, err
	}
	e := &engine.JoinExec{Plan: p, Probe: probe, Builds: builds}
	return s.run(strings.ToLower(probe.Name()), "join", e.Execute)
}

func (s *shadow) priceSide(t *shadowTable, side *engine.JoinSide) (rfabric.EngineKind, error) {
	opt := &engine.Optimizer{Tbl: t.tbl, Sys: s.sys, Store: t.col, Index: t.idx,
		Cache: s.gcache, Offload: s.offload}
	priced := engine.PlanOf(side.Query, side.Table)
	pc, err := opt.ChoosePlan(priced)
	if err != nil {
		return "", err
	}
	if side.Node != nil {
		side.Node.Est = priced.Scan().Est
	}
	return rfabric.EngineKind(pc.Chosen), nil
}

func (s *shadow) buildSources(kinds []rfabric.EngineKind, ts []*shadowTable, p *engine.JoinPlan) ([]engine.Source, error) {
	builds := make([]engine.Source, len(p.Stages))
	for k := range p.Stages {
		src, err := s.joinSource(kinds[k], ts[k], &p.Stages[k].Side)
		if err != nil {
			return nil, err
		}
		builds[k] = src
	}
	return builds, nil
}

// joinSource mirrors the façade's join-side sources: scalar pipelines, IDX
// falling back to ROW when the side's selection cannot use the index.
func (s *shadow) joinSource(kind rfabric.EngineKind, t *shadowTable, side *engine.JoinSide) (engine.Source, error) {
	var src engine.Source
	switch kind {
	case rfabric.RM:
		src = &engine.RMEngine{Tbl: t.tbl, Sys: s.sys, ForceScalar: true, Cache: s.gcache, Offload: s.offload}
	case rfabric.ROW:
		src = &engine.RowEngine{Tbl: t.tbl, Sys: s.sys, ForceScalar: true}
	case "IDX":
		if t.idx != nil && engine.IndexApplicable(t.idx, side.Query.Selection) {
			src = &engine.IndexEngine{Tbl: t.tbl, Sys: s.sys, Idx: t.idx}
		} else {
			src = &engine.RowEngine{Tbl: t.tbl, Sys: s.sys, ForceScalar: true}
		}
	case rfabric.COL:
		store, err := s.columnarCopy(t)
		if err != nil {
			return nil, err
		}
		src = &engine.ColEngine{Store: store, Sys: s.sys, ForceScalar: true}
	default:
		return nil, fmt.Errorf("%w %q", rfabric.ErrUnknownEngine, string(kind))
	}
	if side.Node != nil {
		side.Node.Source = src.Name()
	}
	return src, nil
}

// viewTime measures the fabric alone on the last query's column group: a
// fresh ephemeral view configured on a clone of the System (so the shared
// machine's state is untouched) and drained chunk by chunk.
func (s *shadow) viewTime() (time.Duration, error) {
	t, err := s.lookup(s.last.table)
	if err != nil {
		return 0, err
	}
	geom, err := geometry.NewGeometry(t.tbl.Schema(), s.last.q.NeededColumns()...)
	if err != nil {
		return 0, err
	}
	clone, err := s.sys.Clone()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	ev, err := clone.Fab.Configure(t.tbl, geom)
	if err != nil {
		return 0, err
	}
	for {
		if _, ok := ev.Next(); !ok {
			break
		}
	}
	return time.Since(start), nil
}
