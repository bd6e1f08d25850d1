package engine

// CPU cost constants, in CPU cycles. They are the only tuning knobs on the
// processor side of the performance model; the memory side comes entirely
// from the cache/DRAM simulation. The ratios encode the paper's framing:
// the ROW baseline is a volcano-style tuple-at-a-time interpreter (per-tuple
// iterator overhead), while the COL and RM engines run vectorized
// column-at-a-time loops (per-value costs only) — §V "an in-memory row-store
// following the volcano-style processing model (tuple-at-a-time) and an
// in-memory column-store following the column-at-a-time processing model".
const (
	// VolcanoNextCycles is the per-row interpretation overhead of the
	// tuple-at-a-time iterator chain (virtual dispatch, tuple bookkeeping).
	VolcanoNextCycles = 8
	// ExtractCycles is charged when the row engine pulls one attribute out
	// of a row buffer.
	ExtractCycles = 2
	// VectorOpCycles is the amortized per-value cost of a vectorized
	// primitive (compare, add, copy) in the COL and RM engines.
	VectorOpCycles = 1
	// PredEvalCycles is the per-predicate evaluation cost in the row
	// engine's interpreted filter.
	PredEvalCycles = 2
	// TSCheckSoftwareCycles is the per-row software MVCC visibility check in
	// the row engine (the fabric does this in hardware instead, §III-C).
	TSCheckSoftwareCycles = 2
	// ChecksumCycles is the per-value cost of folding a projected value into
	// the scan consumer.
	ChecksumCycles = 1
	// AggAddCycles is the per-term cost of folding one row into an
	// aggregate.
	AggAddCycles = 1
	// ScalarOpCycles is the cost per arithmetic operation of a derived
	// aggregate expression.
	ScalarOpCycles = 1
	// MaterializeCycles is the per-value cost of writing column-at-a-time
	// intermediates (row-id vectors, reconstructed tuples) in the COL
	// engine — the "tuple reconstruction cost" of §II.
	MaterializeCycles = 1
	// HashGroupCycles is the per-row cost of hashing group keys and probing
	// the aggregation hash table (hash, probe, key compare, pointer chase).
	HashGroupCycles = 40
	// SortCmpCycles is the per-comparison cost of the ORDER BY sink over
	// grouped output (compare, swap amortized). The sink charges
	// n·⌈log₂n⌉·SortCmpCycles for n groups.
	SortCmpCycles = 4
	// HashBuildCycles is charged per build-side row inserted into a join's
	// hash table.
	HashBuildCycles = 16
	// HashProbeCycles is charged per probe-side lookup into a join's hash
	// table.
	HashProbeCycles = 10
	// VectorSize is the batch width of the vectorized engines.
	VectorSize = 1024
)
