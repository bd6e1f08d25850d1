// Package vec implements the fixed-size columnar batch kernels behind the
// engines' batch scan paths and the fabric's filters and offload fold. A
// batch is up to BatchRows rows of one or more columns, each a Col in its
// lane format ([]int64 for BIGINT/INT/DATE, []float64 for DOUBLE, CHAR as
// fixed-width fields read in place in the source buffer or gathered into
// the Col's own), narrowed by a selection vector of row indices. Col is the
// one place that switches on a column's type for batch work: decode,
// gather, take and append, filter against a Pred, checksum, aggregate add
// and group fold, compaction for derived scalars, group and join keys. The
// kernels carry no modeled cost of their own: the engines charge every
// PredEvalCycles/ExtractCycles/Hier.Load row by row under their charge
// model, and the kernels compute over typed lanes in place of boxed Values
// and per-value DecodeColumn calls.
//
// Every kernel follows the boxed values' semantics bit for bit:
// comparisons follow table.Value.Compare (three-way compare, then
// expr.CmpOp.Holds; CHAR compares with trailing-NUL padding stripped),
// checksums follow the engine's FNV-1a value hash (CHAR hashes bytes up to
// the first NUL), and aggregation folds every value in row order by
// AggState's rules — into one AggState per ungrouped term, or into a
// GroupTable's per-kind lanes per group — so float results stay
// bit-identical.
package vec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"rfabric/internal/expr"
	"rfabric/internal/table"
)

// BatchRows is the batch width of the vectorized scan paths. 1024 rows keeps
// a handful of 8-byte lanes comfortably inside L1 of the *host* machine while
// amortizing per-batch bookkeeping; it deliberately matches the modeled
// engines' VectorSize so the simulator's batching mirrors what it simulates.
const BatchRows = 1024

// FNV-1a constants, identical to the engine consumer's checksum hash.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

func mix8(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= (x >> (8 * uint(i))) & 0xff
		h *= fnvPrime
	}
	return h
}

// HashI64 hashes one integer-family value exactly like the engine consumer:
// FNV offset, then the column index, then the sign-extended payload.
func HashI64(col int, x int64) uint64 {
	return mix8(mix8(fnvOffset, uint64(col)), uint64(x))
}

// HashF64 hashes one DOUBLE value (by its IEEE-754 bits).
func HashF64(col int, x float64) uint64 {
	return mix8(mix8(fnvOffset, uint64(col)), math.Float64bits(x))
}

// HashChar hashes one CHAR field: bytes up to (excluding) the first NUL.
func HashChar(col int, b []byte) uint64 {
	return hashCharSeeded(mix8(fnvOffset, uint64(col)), b)
}

// TrimPad strips trailing NUL padding, mirroring table.Value's CHAR
// comparison semantics.
func TrimPad(b []byte) []byte {
	end := len(b)
	for end > 0 && b[end-1] == 0 {
		end--
	}
	return b[:end]
}

// CmpChar compares a padded CHAR field against a pre-trimmed operand.
func CmpChar(field, operand []byte) int {
	return bytes.Compare(TrimPad(field), operand)
}

// AggState is one aggregate term's running state and the definition of
// each aggregate rule: the engines' ungrouped batch consumption, the
// fabric's ungrouped offload fold and the storage controller's fold add to
// it, partitioned runs merge their partitions' states (Merge) before
// finalizing once (Result), and a GroupTable's per-kind lanes fold, merge
// and finish through the same rule code (foldExt, mergeExt, finishExt,
// finishSum, finishAvg). MIN and MAX follow a sequential fold's rule,
// `x < Min` and `x > Max` over the values in order, so the first of equal
// values (-0 and +0) is kept and a NaN never displaces a number; a NaN
// that comes first makes both NaN. Min and Max therefore track only the
// numbers (extAny records that one was folded), and extNaNFirst records a
// leading NaN, which lets two states merge exactly.
type AggState struct {
	Count int64
	Sum   float64
	Min   float64
	Max   float64
	flags uint8 // MIN and MAX's, shared (extAny, extNaNFirst)
}

// Flags of a MIN or MAX state: a number was folded (the state's value
// holds the extreme), and the first value was a NaN. Every fold sets one,
// so a state with no flags has seen no value.
const (
	extAny uint8 = 1 << iota
	extNaNFirst
)

// foldExt folds x into a MIN (max false) or MAX state, value m and flags f,
// by the sequential rule: a number replaces m only when strictly less
// (greater), so the first of equal values stays and a NaN never displaces
// a number; the first number sets m; a NaN that comes first is recorded.
func foldExt(m float64, f uint8, x float64, max bool) (float64, uint8) {
	switch {
	case f&extAny != 0:
		if max && x > m || !max && x < m {
			m = x
		}
	case x == x:
		m, f = x, f|extAny
	case f == 0:
		f = extNaNFirst
	}
	return m, f
}

// mergeExt folds the state (om, of) of the rows that follow into (m, f):
// o's extreme folds in by foldExt's rule, and a state that has seen
// nothing takes o's flags, its leading NaN included.
func mergeExt(m float64, f uint8, om float64, of uint8, max bool) (float64, uint8) {
	if of&extAny != 0 && (f&extAny == 0 || max && om > m || !max && om < m) {
		m = om
	}
	if f == 0 {
		return m, of
	}
	return m, f | of&extAny
}

// finishExt finalizes a MIN or MAX state: NaN when a NaN came first, else
// the extreme of the numbers (0 when none was folded).
func finishExt(m float64, f uint8) float64 {
	if f&extNaNFirst != 0 {
		return math.NaN()
	}
	return m
}

// finishSum finalizes a SUM: a NaN is always math.NaN(), as a sum's NaN
// payload depends on the operand order the compiler picks at each fold
// site.
func finishSum(x float64) float64 {
	if x != x {
		return math.NaN()
	}
	return x
}

// finishAvg finalizes an AVG over n rows, 0 over none.
func finishAvg(sum float64, n int64) float64 {
	if n == 0 {
		return 0
	}
	return finishSum(sum / float64(n))
}

// Add folds one value.
func (a *AggState) Add(x float64) {
	a.Count++
	a.Sum += x
	f := a.flags
	a.Min, a.flags = foldExt(a.Min, f, x, false)
	a.Max, _ = foldExt(a.Max, f, x, true)
}

// Merge folds o, the state of the rows that follow a's, into a: counts and
// sums add, and o's Min and Max fold in by Add's rule (mergeExt). An empty
// o changes nothing. Count, Min and Max then equal one sequential fold of
// both row sequences; Sum is a's sum plus o's.
func (a *AggState) Merge(o AggState) {
	if o.Count == 0 {
		return
	}
	a.Count += o.Count
	a.Sum += o.Sum
	f := a.flags
	a.Min, a.flags = mergeExt(a.Min, f, o.Min, o.flags, false)
	a.Max, _ = mergeExt(a.Max, f, o.Max, o.flags, true)
}

// Result finalizes the state as an aggregate of kind. COUNT yields BIGINT,
// every other kind DOUBLE (Float); over zero rows SUM, AVG, MIN and MAX are
// 0. Every fold finalizes through it or its lane twin
// (GroupTable.FinishAggCol), so a result cannot depend on where it was
// folded.
func (a AggState) Result(kind expr.AggKind) table.Value {
	if kind == expr.Count {
		return table.I64(a.Count)
	}
	return table.F64(a.Float(kind))
}

// Float finalizes the state as a SUM, AVG, MIN or MAX.
func (a AggState) Float(kind expr.AggKind) float64 {
	switch kind {
	case expr.Sum:
		return finishSum(a.Sum)
	case expr.Avg:
		return finishAvg(a.Sum, a.Count)
	case expr.Min:
		return finishExt(a.Min, a.flags)
	case expr.Max:
		return finishExt(a.Max, a.flags)
	}
	panic(fmt.Sprintf("vec: no float result for aggregate kind %d", uint8(kind)))
}

// AddCount registers n qualifying rows for COUNT(*) terms.
func (a *AggState) AddCount(n int64) { a.Count += n }

// AddVals folds an already-compacted value vector in order.
func AddVals(a *AggState, xs []float64) {
	for _, x := range xs {
		a.Add(x)
	}
}

// VisibleMask computes MVCC visibility for rows [start, start+len(vis)) of a
// row heap with the 16-byte timestamp header at each row start: visible iff
// begin <= ts < end.
func VisibleMask(vis []bool, data []byte, stride, start int, ts uint64) {
	off := start * stride
	for i := range vis {
		vis[i] = visibleAt(data[off:off+16], ts)
		off += stride
	}
}

// VisibleRows is VisibleMask for an explicit row-id list: vis[j] reports
// whether row rows[j] of the heap is visible at ts.
func VisibleRows(vis []bool, data []byte, stride int, rows []int32, ts uint64) {
	for j, r := range rows {
		off := int(r) * stride
		vis[j] = visibleAt(data[off:off+16], ts)
	}
}

func visibleAt(header []byte, ts uint64) bool {
	begin := binary.LittleEndian.Uint64(header[0:8])
	end := binary.LittleEndian.Uint64(header[8:16])
	return begin <= ts && ts < end
}
