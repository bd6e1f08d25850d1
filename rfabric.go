// Package rfabric is a software reproduction of Relational Fabric
// (Transparent Data Transformation, ICDE 2023): row-oriented base tables
// whose arbitrary column groups are served on the fly by a simulated
// near-data transformation engine (Relational Memory), together with the
// row-store and column-store baselines the paper compares against, MVCC
// snapshot transactions filtered "in hardware", a storage-tier instance
// (Relational Storage), and the compression substrate the vision discusses.
//
// The quickstart mirrors the paper's Figure 3: define a row table, state a
// query, and consume the ephemeral column group the fabric produces:
//
//	db, _ := rfabric.Open(rfabric.DefaultConfig())
//	tbl, _ := db.CreateTable("t", schema, 100_000)
//	... load rows ...
//	res, _ := db.Query("SELECT key, num_fld1 FROM t WHERE key > 10")
//
// Every query also returns the modeled cost (simulated CPU cycles, bytes
// moved through the memory hierarchy), which is how the repository
// regenerates the paper's figures — see the experiments harness under
// cmd/rfbench and the benches in bench_test.go.
package rfabric

import (
	"rfabric/internal/cache"
	"rfabric/internal/dram"
	"rfabric/internal/engine"
	"rfabric/internal/expr"
	"rfabric/internal/fabric"
	"rfabric/internal/geometry"
	"rfabric/internal/mvcc"
	"rfabric/internal/obs"
	"rfabric/internal/table"
)

// Schema building blocks.
type (
	// Column declares one attribute of a table schema.
	Column = geometry.Column
	// ColumnType enumerates supported fixed-width types.
	ColumnType = geometry.ColumnType
	// Schema is an ordered set of columns with a derived row layout.
	Schema = geometry.Schema
	// Geometry identifies an arbitrary column group — the unit the fabric
	// transforms and ships.
	Geometry = geometry.Geometry
)

// Column types.
const (
	Int64   = geometry.Int64
	Int32   = geometry.Int32
	Float64 = geometry.Float64
	Char    = geometry.Char
	Date    = geometry.Date
)

// NewSchema lays out columns back to back and returns the schema.
func NewSchema(cols ...Column) (*Schema, error) { return geometry.NewSchema(cols...) }

// NewGeometry builds a column group over a schema by column indices.
func NewGeometry(s *Schema, cols ...int) (*Geometry, error) { return geometry.NewGeometry(s, cols...) }

// NewGeometryByName builds a column group by column names.
func NewGeometryByName(s *Schema, names ...string) (*Geometry, error) {
	return geometry.NewGeometryByName(s, names...)
}

// Values and tables.
type (
	// Value is one typed cell.
	Value = table.Value
	// Table is a row-oriented base table.
	Table = table.Table
)

// Value constructors.
var (
	// I64 builds a BIGINT value.
	I64 = table.I64
	// I32 builds an INT value.
	I32 = table.I32
	// F64 builds a DOUBLE value.
	F64 = table.F64
	// Str builds a CHAR value.
	Str = table.Str
	// DateV builds a DATE value from a day number.
	DateV = table.DateV
)

// Platform configuration.
type (
	// Config bundles the simulated platform: DRAM, caches, fabric.
	Config = engine.SystemConfig
	// DRAMConfig parameterizes the banked memory model.
	DRAMConfig = dram.Config
	// CacheConfig parameterizes the L1/L2 hierarchy and prefetcher.
	CacheConfig = cache.HierarchyConfig
	// FabricConfig parameterizes the Relational Memory engine.
	FabricConfig = fabric.Config
	// System is one simulated machine instance.
	System = engine.System
)

// DefaultConfig mirrors the paper's prototype proportions: 32 KB L1, 1 MB
// L2, a 4-stream prefetcher, 8 DRAM banks, and a fabric with a 2 MB buffer
// at a 1:15 clock ratio.
func DefaultConfig() Config { return engine.DefaultSystemConfig() }

// NewSystem builds a simulated machine.
func NewSystem(cfg Config) (*System, error) { return engine.NewSystem(cfg) }

// Query results.
type (
	// Result is a query outcome with its modeled cost.
	Result = engine.Result
	// Breakdown is the modeled cost of one execution.
	Breakdown = engine.Breakdown
	// ParallelConfig parameterizes morsel-parallel execution (worker count,
	// morsel size); see DB.SetParallel.
	ParallelConfig = engine.ParallelConfig
)

// Predicates and aggregates.
type (
	// Predicate compares a column against a constant.
	Predicate = expr.Predicate
	// Conjunction is an AND of predicates.
	Conjunction = expr.Conjunction
	// CmpOp is a comparison operator.
	CmpOp = expr.CmpOp
	// AggKind names an aggregate function.
	AggKind = expr.AggKind
	// AggSpec is a plain-column aggregate over a numeric column (or
	// COUNT(*)), the shape the fabric's offload program folds near memory
	// and Relational Storage folds in the controller.
	AggSpec = expr.AggSpec
	// Scalar is a per-row arithmetic expression.
	Scalar = expr.Scalar
	// ColRef references a column inside a scalar expression.
	ColRef = expr.ColRef
)

// Comparison operators.
const (
	Lt = expr.Lt
	Le = expr.Le
	Eq = expr.Eq
	Ne = expr.Ne
	Ge = expr.Ge
	Gt = expr.Gt
)

// Aggregate kinds.
const (
	Count = expr.Count
	Sum   = expr.Sum
	Min   = expr.Min
	Max   = expr.Max
	Avg   = expr.Avg
)

// Fabric surface.
type (
	// Ephemeral is a configured non-materialized column-group view — the
	// paper's ephemeral variable.
	Ephemeral = fabric.Ephemeral
	// FabricEngine is the Relational Memory device.
	FabricEngine = fabric.Engine
	// ViewOption configures an ephemeral view.
	ViewOption = fabric.ViewOption
	// Offload is an aggregation program an ephemeral view runs near memory
	// (Ephemeral.RunOffload), shipping only its results.
	Offload = fabric.Offload
)

// WithSnapshot pins an ephemeral view to an MVCC snapshot.
func WithSnapshot(ts uint64) ViewOption { return fabric.WithSnapshot(ts) }

// WithSelection pushes predicates into the fabric.
func WithSelection(preds Conjunction) ViewOption { return fabric.WithSelection(preds) }

// Observability surface.
type (
	// Registry holds the metric series the simulated fabric publishes;
	// attach one with DB.SetObserver and export it with WritePrometheus or
	// WriteJSON (or serve it through obs.NewMux / rfbench -serve).
	Registry = obs.Registry
	// Labels key one metric series (engine kind, table, component).
	Labels = obs.Labels
	// Span is one node of a trace tree with modeled cycle and byte
	// attributions.
	Span = obs.Span
	// Trace is a finished EXPLAIN ANALYZE artifact; Render writes the
	// human-readable tree and WriteChrome exports Chrome Trace Event JSON
	// for Perfetto.
	Trace = obs.Trace
	// Timeline is the cycle-sampled hardware time series a traced query
	// records when run with WithTimeline.
	Timeline = obs.Timeline
	// TimelineSample is one sampled window of a Timeline.
	TimelineSample = obs.TimelineSample
	// StatStore aggregates per-statement statistics under normalized
	// fingerprints, pg_stat_statements-style; attach one with
	// DB.SetStatements and export it with Snapshot, WriteJSON,
	// WritePrometheus, or its /debug/statements handler.
	StatStore = obs.StatStore
	// StatementRecord is one fingerprint's aggregate in a StatStore
	// snapshot.
	StatementRecord = obs.StatementRecord
	// SlowLog is the ring of recent slow queries (DB.SetSlowThreshold),
	// each entry carrying the full trace of the offending run.
	SlowLog = obs.SlowLog
	// SlowEntry is one captured slow query.
	SlowEntry = obs.SlowEntry
	// Windows is the sliding-window telemetry aggregator: a lock-striped
	// per-second ring tracking rolling QPS, error rate, latency quantiles,
	// bytes moved, cache miss ratio, wall-clock, and allocation deltas.
	// Attach one with DB.SetWindows; serve it via its /debug/windows.json
	// handler or read Snapshot/Series directly.
	Windows = obs.Windows
	// WindowSnapshot is the merged scoreboard over a trailing window.
	WindowSnapshot = obs.WindowSnapshot
	// WindowSample is one query's contribution to the rolling window, for
	// callers feeding a Windows outside the DB facade.
	WindowSample = obs.WindowSample
)

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// NewStatStore creates an empty statement statistics store.
func NewStatStore() *StatStore { return obs.NewStatStore() }

// NewWindows creates a sliding-window telemetry aggregator retaining the
// trailing seconds seconds.
func NewWindows(seconds int) *Windows { return obs.NewWindows(seconds) }

// Transactions.
type (
	// TxnManager coordinates snapshot-isolation transactions over one
	// MVCC table.
	TxnManager = mvcc.Manager
	// Txn is one transaction.
	Txn = mvcc.Txn
)

// NewTxnManager wraps an MVCC table.
func NewTxnManager(tbl *Table) (*TxnManager, error) { return mvcc.NewManager(tbl) }
