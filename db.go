package rfabric

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"rfabric/internal/colstore"
	"rfabric/internal/engine"
	"rfabric/internal/fabric"
	"rfabric/internal/index"
	"rfabric/internal/obs"
	"rfabric/internal/plan"
	"rfabric/internal/sql"
	"rfabric/internal/table"
)

// DB is the convenience façade a downstream application uses: a catalog of
// row tables placed in one simulated system, queried through the mini-SQL
// dialect. Queries run on the Relational Memory path by default — the
// paper's thesis is that with the fabric present there is no reason to keep
// a second layout — but the two baselines stay available for comparison.
//
// The catalog and its statements are safe for concurrent use. CreateTable,
// CreateIndex, Prepare, and lookups take the DB's catalog lock. Statements
// serialize: each query and each Insert holds the DB's execution lock for
// its whole run, so one statement at a time drives the shared simulated
// machine. PAR (SetParallel) parallelizes within a statement, on private
// System clones. Wrap MVCC tables in a TxnManager for concurrent ingest
// (see the htap example): its writers do not wait for queries, and a query
// reads a consistent snapshot with AS OF.
type DB struct {
	sys *System

	mu     sync.RWMutex // guards tables, each dbTable's col/idx, and plans
	tables map[string]*dbTable
	plans  *planCache

	// execMu admits one statement at a time: a query holds it for its whole
	// run and so does Insert, so no two goroutines drive the shared System
	// together and no query reads a table while a row is appended to it.
	// Insert takes it before mu; a query takes mu only while holding it.
	execMu sync.Mutex

	par *engine.ParallelConfig // nil: single-goroutine execution

	// The observability sinks every statement's event feeds (db_stats.go).
	reg  *obs.Registry // nil: no metrics publishing
	win  *obs.Windows  // nil: no sliding-window telemetry
	last obs.LastTrace // most recent traced query, for /debug/trace/last

	stats         *obs.StatStore // nil: no per-statement statistics
	slow          *obs.SlowLog   // created lazily by SetSlowThreshold
	slowThreshold atomic.Uint64  // modeled cycles; 0 = slow log disarmed

	// gcache is the sequence-aware column-group cache (nil: off, the
	// paper's per-query ephemeral behaviour). Set by SetGroupCache; guarded
	// by mu alongside the catalog it caches over.
	gcache *fabric.GroupCache

	// offload enables the fabric operator-offload layer (selection,
	// projection, grouped aggregation, and Bloom-filtered join probes run
	// near memory). Set by SetOffload; default off, preserving the
	// CPU-consumes-packed-chunks behaviour byte-for-byte.
	offload bool

	// catalogEpoch counts catalog mutations (CreateTable, CreateIndex,
	// Insert). Prepared statements record the epoch they compiled under and
	// recompile when it moves — the planCache's invalidation mechanism.
	catalogEpoch atomic.Uint64

	gcMu   sync.Mutex // serializes the events' group-cache deltas
	lastGC fabric.GroupCacheStats
}

type dbTable struct {
	tbl      *Table
	capacity int
	col      *colstore.Store // lazily materialized columnar copy
	// colVersion is the table mutation count the columnar copy was built
	// at; a moved version means the copy is stale and must be rebuilt.
	// This catches writers that bypass the façade (direct *Table handles),
	// which Insert's eager `col = nil` cannot see.
	colVersion uint64
	idx        *index.BTree // optional secondary index
}

// Open creates an empty database on a fresh simulated system.
func Open(cfg Config) (*DB, error) {
	sys, err := NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	return &DB{sys: sys, tables: map[string]*dbTable{}}, nil
}

// System exposes the underlying simulated machine (for stats and the
// lower-level APIs).
func (db *DB) System() *System { return db.sys }

// GroupCacheConfig parameterizes the sequence-aware column-group cache.
type GroupCacheConfig struct {
	// CapacityBytes bounds the cache by modeled packed bytes (LRU
	// eviction of unpinned entries). Zero or negative disables the cache.
	CapacityBytes int64
}

// DefaultGroupCacheConfig is a 64 MB cache.
func DefaultGroupCacheConfig() GroupCacheConfig {
	return GroupCacheConfig{CapacityBytes: 64 << 20}
}

// SetGroupCache turns the sequence-aware column-group cache on (or, with a
// non-positive capacity, off). With the cache on, RM scans keep their packed
// column groups resident and replay them on later same-shaped queries, and
// AUTO prices resident groups as warm. Default is off: execution and modeled
// costs are byte-identical to the per-query ephemeral behaviour.
func (db *DB) SetGroupCache(cfg GroupCacheConfig) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if cfg.CapacityBytes <= 0 {
		db.gcache = nil
		return
	}
	db.gcache = fabric.NewGroupCache(cfg.CapacityBytes, db.sys.Arena)
}

// SetOffload turns the fabric operator-offload layer on or off. With it on,
// RM scans push selection and whole offloadable aggregations (grouped or
// not) into the fabric and ship only reduced results, join probes are
// pre-filtered near data against build-side Bloom filters, and AUTO prices
// the offloaded shape. The logical results are bit-identical either way;
// only where the work runs — and therefore bytes-to-CPU and modeled
// cycles — changes. Default is off.
func (db *DB) SetOffload(on bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.offload = on
}

// offloadOn returns the offload flag under the read lock.
func (db *DB) offloadOn() bool {
	db.mu.RLock()
	on := db.offload
	db.mu.RUnlock()
	return on
}

// groupCache returns the cache under the read lock (nil when off).
func (db *DB) groupCache() *fabric.GroupCache {
	db.mu.RLock()
	gc := db.gcache
	db.mu.RUnlock()
	return gc
}

// GroupCacheStats snapshots the group cache's counters and occupancy.
// All-zero when the cache is off.
func (db *DB) GroupCacheStats() fabric.GroupCacheStats {
	return db.groupCache().Stats()
}

// TableOption configures CreateTable.
type TableOption func(*tableOpts)

type tableOpts struct{ mvcc bool }

// WithMVCC gives every row the two-timestamp MVCC header.
func WithMVCC() TableOption { return func(o *tableOpts) { o.mvcc = true } }

// CreateTable registers a new row table with room for capacity rows at a
// fixed place in the simulated address space.
func (db *DB) CreateTable(name string, schema *Schema, capacity int, opts ...TableOption) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.tables[name]; dup {
		return nil, fmt.Errorf("rfabric: table %q already exists", name)
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("rfabric: capacity must be positive, got %d", capacity)
	}
	var o tableOpts
	for _, opt := range opts {
		opt(&o)
	}
	stride := schema.RowBytes()
	if o.mvcc {
		stride += table.MVCCHeaderBytes
	}
	base := db.sys.Arena.Alloc(int64(capacity * stride))
	tOpts := []table.Option{table.WithCapacity(capacity), table.WithBaseAddr(base)}
	if o.mvcc {
		tOpts = append(tOpts, table.WithMVCC())
	}
	tbl, err := table.New(name, schema, tOpts...)
	if err != nil {
		return nil, err
	}
	db.tables[name] = &dbTable{tbl: tbl, capacity: capacity}
	db.catalogEpoch.Add(1)
	return tbl, nil
}

// lookup fetches a catalog entry under the read lock.
func (db *DB) lookup(name string) (*dbTable, error) {
	db.mu.RLock()
	t, ok := db.tables[name]
	db.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	return t, nil
}

// Table returns a registered table.
func (db *DB) Table(name string) (*Table, error) {
	t, err := db.lookup(name)
	if err != nil {
		return nil, err
	}
	return t.tbl, nil
}

// TableNames lists the catalog in sorted order.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	db.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Insert appends one row, respecting the table's reserved capacity (the
// simulated address space behind it is fixed at creation).
func (db *DB) Insert(name string, vals ...Value) error {
	db.execMu.Lock()
	defer db.execMu.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	if t.tbl.NumRows() >= t.capacity {
		return fmt.Errorf("rfabric: table %q is at its reserved capacity of %d rows", name, t.capacity)
	}
	row, err := t.tbl.Append(1, vals...)
	if err == nil {
		t.col = nil // invalidate any columnar copy
		if t.idx != nil {
			if v, gerr := t.tbl.Get(row, t.idx.Column()); gerr == nil {
				t.idx.Insert(db.sys.Hier, v.Int, row)
			}
		}
		db.catalogEpoch.Add(1)
		db.gcache.Invalidate(t.tbl)
	}
	return err
}

// CreateIndex builds a B+tree over the named column and keeps it maintained
// on future inserts. The AUTO engine prices it as an access path.
func (db *DB) CreateIndex(tableName, column string) (*index.BTree, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[tableName]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, tableName)
	}
	if t.idx != nil {
		return nil, fmt.Errorf("rfabric: table %q already has an index", tableName)
	}
	col, ok := t.tbl.Schema().Lookup(column)
	if !ok {
		return nil, fmt.Errorf("rfabric: unknown column %q", column)
	}
	idx, err := index.Build(t.tbl, col, db.sys.Arena)
	if err != nil {
		return nil, err
	}
	t.idx = idx
	db.catalogEpoch.Add(1)
	return idx, nil
}

// EngineKind picks which execution path a query runs on.
type EngineKind string

// Execution paths.
const (
	// RM is the default: Relational Memory's ephemeral column groups.
	RM EngineKind = "RM"
	// ROW is the volcano-style baseline over the base data.
	ROW EngineKind = "ROW"
	// COL is the column-at-a-time baseline; the first COL query converts
	// the table into a columnar copy (the duplication the paper removes).
	COL EngineKind = "COL"
	// AUTO runs the constructive optimizer (§III-B): it prices the access
	// paths by running them on the table's first rows and takes the
	// cheapest. A columnar copy is considered only if one already exists.
	AUTO EngineKind = "AUTO"
	// PAR is the morsel-parallel access path: the table's row range splits
	// into fixed-size morsels that workers run on the RM path of private
	// System clones, merged deterministically. RM queries route here
	// automatically once SetParallel is called.
	PAR EngineKind = "PAR"
)

// SetParallel enables morsel-parallel execution: RM-path queries (the
// default for Query) run on the PAR executor with this configuration. Zero
// fields mean defaults (GOMAXPROCS workers, DefaultMorselRows morsels).
// Results are identical to single-goroutine RM execution up to float
// summation order, and identical across worker counts. PAR parallelizes
// within a statement; statements still run one at a time.
func (db *DB) SetParallel(cfg ParallelConfig) { db.par = &cfg }

// Query parses, plans, and executes the statement on the RM path.
func (db *DB) Query(query string) (*Result, error) {
	return db.QueryOn(RM, query)
}

// QueryOn parses, lowers, and executes the statement on the chosen path: the
// statement becomes a physical plan chain (internal/plan), the chain lowers
// to the pipeline query, its ORDER BY / LIMIT sinks included, and the
// pipeline runs on the selected Source. When a statement store or slow log is
// attached, the call also records under its normalized fingerprint.
func (db *DB) QueryOn(kind EngineKind, query string) (*Result, error) {
	res, _, err := db.query(kind, query, db.observe(query, nil))
	return res, err
}

// statement is the compiled form every façade entry point runs: the SQL
// text, its lowered plan, the probe (or only) table, and either the
// pipeline query of a single-table statement or the executable plan of a
// join. Either query carries the ORDER BY / LIMIT sinks, which sk repeats
// for the charge (applySinks).
type statement struct {
	text string
	root *plan.Node
	t    *dbTable
	q    engine.Query
	jp   *engine.JoinPlan // nil for a single-table statement
	sk   engine.Sinks
}

// compile parses text and lowers it against the catalog. With a tracer it
// records the parse and plan.logical spans.
func (db *DB) compile(text string, tr *obs.Tracer) (*statement, error) {
	psp := tr.Begin("parse")
	st, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	psp.SetAttr("table", st.Table)
	tr.End()

	tr.Begin("plan.logical")
	root, err := sql.LowerCatalog(st, db.schemaLookup)
	if err != nil {
		return nil, err
	}
	t, err := db.lookup(st.Table)
	if err != nil {
		return nil, err
	}
	s := &statement{text: text, root: root, t: t}
	if len(st.Joins) > 0 {
		s.jp, s.sk, err = engine.FromJoinPlan(root, db.schemaLookup)
	} else {
		s.q, s.sk, err = engine.FromPlan(root)
	}
	if err != nil {
		return nil, err
	}
	tr.End()
	return s, nil
}

// query compiles text and runs it. An observed statement that fails to
// compile still reports one event.
func (db *DB) query(kind EngineKind, text string, c *stmtCtx) (*Result, *Trace, error) {
	s, err := db.compile(text, c.tracer())
	if err != nil {
		if c != nil {
			db.publish(db.seal(c, &queryEvent{kind: kind, err: err}))
		}
		return nil, nil, err
	}
	return db.exec(kind, s, c)
}

// exec runs a compiled statement and, when something observes it, reports
// its event. With a tracer it renders the plan tree under plan.physical
// before the run and stamps what ran onto that tree after it; a timeline
// samples hardware state along the run. The simulated hardware counters
// bracket dispatch inside execMu, because Insert moves the hierarchy
// through index maintenance. What ran is priced only when something reads
// the price (c.price).
func (db *DB) exec(kind EngineKind, s *statement, c *stmtCtx) (*Result, *Trace, error) {
	db.execMu.Lock()
	defer db.execMu.Unlock()
	if c == nil {
		// Nothing observes the statement: no bracket, no event.
		res, err := db.dispatch(kind, s, nil)
		return res, nil, err
	}
	var tree *plan.Node
	var pairs []opSpan
	if c.tr != nil {
		tree = s.tree()
		pairs = attachPlanSpans(c.tr.Root(), tree, s.t.tbl.Schema())
		if c.tl != nil {
			c.tr.AttachTimeline(c.tl)
			db.sys.AttachTimeline(c.tl)
			defer db.sys.DetachTimeline()
		}
	}
	hw0 := db.sys.HW()
	res, err := db.dispatch(kind, s, c.tr)
	hw := db.sys.HW().Delta(hw0)
	if err == nil {
		hw = hw.Add(res.MorselHW)
		if c.price {
			c.est, c.act = db.priceRun(s, tree, res)
		}
		if c.tr != nil {
			annotatePlanSpans(pairs, res, s.t.tbl.Schema())
			c.tl.Finish(res.Breakdown.TotalCycles)
		}
	}
	ev := db.seal(c, &queryEvent{kind: kind, table: s.t.tbl.Name(), res: res, err: err, hw: hw})
	db.publish(ev)
	if err != nil {
		return nil, nil, err
	}
	return res, ev.trace, nil
}

// dispatch executes the statement on the chosen path and charges its
// sinks: every executor finishes ORDER BY / LIMIT on its group table, and
// applySinks charges the sort. It is the one place a join and a
// single-table statement part ways.
func (db *DB) dispatch(kind EngineKind, s *statement, tr *obs.Tracer) (*Result, error) {
	var res *Result
	var err error
	if s.jp != nil {
		res, err = db.executeJoin(kind, s.t, s.jp, tr)
	} else {
		res, err = db.execute(kind, s.t, s.q, tr)
	}
	if err == nil {
		applySinks(res, s.sk, tr)
	}
	return res, err
}

// optimizer returns the constructive optimizer over t's current access
// paths: its columnar copy and index, read under the lock. Callers add the
// group cache and offload inputs their pricing needs.
func (db *DB) optimizer(t *dbTable) *engine.Optimizer {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return &engine.Optimizer{Tbl: t.tbl, Sys: db.sys, Store: t.col, Index: t.idx}
}

// execute dispatches by selecting a Source for the chosen access path and
// handing it to the shared pipeline (engine.Run). Only AUTO sits outside
// that shape: it prices the physical plan first and recurses with the
// chosen source stamped in. RM runs on PAR once SetParallel is called.
func (db *DB) execute(kind EngineKind, t *dbTable, q engine.Query, tr *obs.Tracer) (*Result, error) {
	switch kind {
	case AUTO:
		opt := db.optimizer(t)
		opt.Cache, opt.Offload = db.groupCache(), db.offloadOn()
		root := engine.PlanOf(q, t.tbl.Name())
		sp := tr.Begin("plan")
		p, err := opt.ChoosePlan(root)
		if err != nil {
			tr.End()
			return nil, fmt.Errorf("rfabric: optimizing query: %w", err)
		}
		sp.SetAttr("chosen", p.Chosen)
		if est := root.Scan().Est; est != nil && est.Warm {
			sp.SetAttr("warm", "true")
		}
		tr.End()
		return db.execute(EngineKind(p.Chosen), t, q, tr)
	case RM:
		if db.par != nil {
			kind = PAR
		}
	}
	src, err := db.source(kind, t, tr)
	if err != nil {
		return nil, err
	}
	return engine.Run(src, q)
}

// source builds the engine Source for one access path. Each engine struct is
// only a Source — the scan/consume loop lives in the shared pipeline, and
// PAR's morsels each stream an RM source of their own.
func (db *DB) source(kind EngineKind, t *dbTable, tr *obs.Tracer) (engine.Source, error) {
	switch kind {
	case RM:
		return &engine.RMEngine{Tbl: t.tbl, Sys: db.sys, Tracer: tr, Cache: db.groupCache(),
			Offload: db.offloadOn()}, nil
	case PAR:
		var cfg engine.ParallelConfig
		if db.par != nil {
			cfg = *db.par
		}
		return &engine.ParallelEngine{Tbl: t.tbl, Sys: db.sys, Par: cfg, Offload: db.offloadOn(), Tracer: tr}, nil
	case ROW:
		return &engine.RowEngine{Tbl: t.tbl, Sys: db.sys, Tracer: tr}, nil
	case "IDX":
		db.mu.RLock()
		idx := t.idx
		db.mu.RUnlock()
		if idx == nil {
			return nil, errors.New("rfabric: no index on this table")
		}
		return &engine.IndexEngine{Tbl: t.tbl, Sys: db.sys, Idx: idx, Tracer: tr}, nil
	case COL:
		store, err := db.columnarCopy(t)
		if err != nil {
			return nil, err
		}
		return &engine.ColEngine{Store: store, Sys: db.sys, Tracer: tr}, nil
	default:
		return nil, fmt.Errorf("%w %q", ErrUnknownEngine, string(kind))
	}
}

// columnarCopy returns the table's columnar copy, materializing it on first
// use (the duplication the paper removes — kept as the COL baseline) and
// rebuilding it whenever the table's mutation version has moved since the
// build — writes through Insert and writes through a raw *Table handle both
// invalidate. Double-checked under the DB lock so a concurrent catalog
// writer cannot race the lazy build.
func (db *DB) columnarCopy(t *dbTable) (*colstore.Store, error) {
	db.mu.RLock()
	store, built := t.col, t.colVersion
	db.mu.RUnlock()
	if store != nil && built == t.tbl.Version() {
		return store, nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if t.col == nil || t.colVersion != t.tbl.Version() {
		// Snapshot the version before copying: a write that lands during
		// the build leaves the version ahead, forcing a rebuild next time.
		ver := t.tbl.Version()
		store, err := colstore.FromTable(t.tbl, db.sys.Arena)
		if err != nil {
			return nil, fmt.Errorf("rfabric: materializing columnar copy: %w", err)
		}
		t.col = store
		t.colVersion = ver
	}
	return t.col, nil
}

// schemaLookup resolves a table name to its schema — the catalog interface
// the join planner lowers against.
func (db *DB) schemaLookup(name string) (*Schema, error) {
	t, err := db.lookup(name)
	if err != nil {
		return nil, err
	}
	return t.tbl.Schema(), nil
}

// executeJoin dispatches a join plan. Every side is its own Source, so each
// runs on its own access path: the chosen kind applies to all sides, AUTO
// prices each side independently, and an RM probe runs on PAR once
// SetParallel is called (builds run once on the shared System either way).
func (db *DB) executeJoin(kind EngineKind, probeT *dbTable, p *engine.JoinPlan, tr *obs.Tracer) (*Result, error) {
	var err error
	buildTs := make([]*dbTable, len(p.Stages))
	for k := range p.Stages {
		if buildTs[k], err = db.lookup(p.Stages[k].Side.Table); err != nil {
			return nil, err
		}
	}

	probeKind := kind
	buildKinds := make([]EngineKind, len(p.Stages))
	for k := range buildKinds {
		buildKinds[k] = kind
	}
	if kind == AUTO {
		sp := tr.Begin("plan")
		if probeKind, err = db.priceJoinSide(probeT, &p.Probe); err != nil {
			tr.End()
			return nil, fmt.Errorf("rfabric: optimizing join probe: %w", err)
		}
		sp.SetAttr("probe", string(probeKind))
		if n := p.Probe.Node; n != nil && n.Est != nil {
			sp.SetAttr("probe_sel", fmt.Sprintf("%.3f", n.Est.Selectivity))
		}
		for k := range p.Stages {
			if buildKinds[k], err = db.priceJoinSide(buildTs[k], &p.Stages[k].Side); err != nil {
				tr.End()
				return nil, fmt.Errorf("rfabric: optimizing join build %d: %w", k, err)
			}
			sp.SetAttr(fmt.Sprintf("build_%d", k), string(buildKinds[k]))
			if n := p.Stages[k].Side.Node; n != nil && n.Est != nil {
				sp.SetAttr(fmt.Sprintf("build_%d_sel", k), fmt.Sprintf("%.3f", n.Est.Selectivity))
			}
		}
		tr.End()
	}
	if probeKind == RM && db.par != nil {
		probeKind = PAR
	}
	probe, err := db.joinSource(probeKind, probeT, &p.Probe, tr)
	if err != nil {
		return nil, err
	}
	builds, err := db.joinBuildSources(buildKinds, buildTs, p, tr)
	if err != nil {
		return nil, err
	}
	return (&engine.JoinExec{Plan: p, Probe: probe, Builds: builds}).Execute()
}

// priceJoinSide runs the constructive optimizer over one side's query in
// isolation: the side is a complete scan-shaped subplan, so single-table
// pricing applies directly. The winning estimate is copied onto the
// side's own Scan node — the node EXPLAIN ANALYZE renders — so the pricing
// survives the throwaway tree ChoosePlan stamps it on.
func (db *DB) priceJoinSide(t *dbTable, side *engine.JoinSide) (EngineKind, error) {
	opt := db.optimizer(t)
	opt.Cache, opt.Offload = db.groupCache(), db.offloadOn()
	priced := engine.PlanOf(side.Query, side.Table)
	pc, err := opt.ChoosePlan(priced)
	if err != nil {
		return "", err
	}
	if side.Node != nil {
		side.Node.Est = priced.Scan().Est
	}
	return EngineKind(pc.Chosen), nil
}

// joinBuildSources builds one Source per build stage. A PAR build reads as
// RM: builds run once on the shared System, and only the probe splits into
// morsels.
func (db *DB) joinBuildSources(kinds []EngineKind, ts []*dbTable, p *engine.JoinPlan, tr *obs.Tracer) ([]engine.Source, error) {
	builds := make([]engine.Source, len(p.Stages))
	for k, kind := range kinds {
		if kind == PAR {
			kind = RM
		}
		src, err := db.joinSource(kind, ts[k], &p.Stages[k].Side, tr)
		if err != nil {
			return nil, err
		}
		builds[k] = src
	}
	return builds, nil
}

// joinSource builds the Source for one join side and stamps the access path
// it actually got onto the side's Scan node. Every side streams its rows
// into the join's build or probe sink on the batch pipeline. IDX falls back
// to ROW when the side's selection cannot use the index — a join side is an
// internal scan, not a user-chosen path.
func (db *DB) joinSource(kind EngineKind, t *dbTable, side *engine.JoinSide, tr *obs.Tracer) (engine.Source, error) {
	if kind == "IDX" {
		db.mu.RLock()
		idx := t.idx
		db.mu.RUnlock()
		if idx == nil || !engine.IndexApplicable(idx, side.Query.Selection) {
			kind = ROW
		}
	}
	src, err := db.source(kind, t, tr)
	if err != nil {
		return nil, err
	}
	if side.Node != nil {
		side.Node.Source = src.Name()
	}
	return src, nil
}

// applySinks charges the plan's ORDER BY / LIMIT sinks to a finished result
// and, when the run is traced, attributes the modeled sort cycles to a sink
// span so the root still reconciles with Breakdown.TotalCycles.
func applySinks(res *Result, sk engine.Sinks, tr *obs.Tracer) {
	if sk.Empty() {
		return
	}
	cycles := engine.ApplySinks(res, sk)
	sp := tr.Root().Leaf("sink", cycles, 0)
	if len(sk.Keys) > 0 {
		sp.SetAttr("orderby_keys", fmt.Sprint(len(sk.Keys)))
	}
	if sk.HasLimit {
		sp.SetAttr("limit", fmt.Sprint(sk.Limit))
	}
}

// Configure builds an ephemeral view of the named columns over a registered
// table — the Fig. 3 API surface for callers that want the packed bytes
// rather than query results.
func (db *DB) Configure(tableName string, columns []string, opts ...ViewOption) (*Ephemeral, error) {
	t, err := db.lookup(tableName)
	if err != nil {
		return nil, err
	}
	geom, err := NewGeometryByName(t.tbl.Schema(), columns...)
	if err != nil {
		return nil, err
	}
	return db.sys.Fab.Configure(t.tbl, geom, opts...)
}

// ParseDate converts 'YYYY-MM-DD' into the day number DATE columns store.
func ParseDate(s string) (int32, error) { return sql.ParseDate(s) }

// FormatDate renders a DATE day number as 'YYYY-MM-DD'.
func FormatDate(day int32) string { return sql.FormatDate(day) }
