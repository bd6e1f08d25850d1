// Package vec implements the fixed-size columnar batch kernels behind the
// engines' batch scan paths. A batch is BatchRows rows of one or more
// typed lanes ([]int64 for BIGINT/INT/DATE, []float64 for DOUBLE; CHAR
// columns are accessed in place in the source buffer), narrowed by a
// selection vector of row indices. The kernels carry no modeled cost of
// their own: the engines charge every PredEvalCycles/ExtractCycles/
// Hier.Load row by row under their charge model, and the kernels compute
// over typed lanes in place of boxed Values and per-value DecodeColumn
// calls.
//
// Every kernel follows the boxed values' semantics bit for bit:
// comparisons follow table.Value.Compare (three-way compare, then
// expr.CmpOp.Holds; CHAR compares with trailing-NUL padding stripped),
// checksums follow the engine's FNV-1a value hash (CHAR hashes bytes up to
// the first NUL), and aggregation folds every value in row order through
// one AggState so float results stay bit-identical.
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
	h := mix8(fnvOffset, uint64(col))
	for _, c := range b {
		if c == 0 {
			break
		}
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
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

// CmpI64 is the three-way integer compare of table.Value.Compare.
func CmpI64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// CmpF64 is the three-way float compare of table.Value.Compare. NaN compares
// as neither less nor greater — cmp 0 — exactly like Value.Compare.
func CmpF64(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// CmpChar compares a padded CHAR field against a pre-trimmed operand.
func CmpChar(field, operand []byte) int {
	return bytes.Compare(TrimPad(field), operand)
}

// AggState is one aggregate term's running state, the only aggregate fold
// there is: the engines' batch consumption, the fabric's offload fold and
// the storage controller's fold all add to it, and partitioned
// runs merge their partitions' states (Merge) before finalizing once
// (Result). MIN and MAX follow a sequential fold's rule, `x < Min` and
// `x > Max` over the values in order, so the first of equal values (-0 and
// +0) is kept and a NaN never displaces a number; a NaN that comes first
// makes both NaN. Min and Max therefore track only the numbers (Any reports
// one was folded), and NaNFirst records a leading NaN, which lets two
// states merge exactly.
type AggState struct {
	Count    int64
	Sum      float64
	Min      float64
	Max      float64
	Any      bool
	NaNFirst bool
}

// Add folds one value.
func (a *AggState) Add(x float64) {
	a.Count++
	a.Sum += x
	switch {
	case a.Any:
		if x < a.Min {
			a.Min = x
		}
		if x > a.Max {
			a.Max = x
		}
	case x == x:
		a.Min, a.Max, a.Any = x, x, true
	case a.Count == 1:
		a.NaNFirst = true
	}
}

// Merge folds o, the state of the rows that follow a's, into a: counts and
// sums add, and o's Min and Max fold in by Add's rule (`!Any || x < Min`).
// An empty o changes nothing. Count, Min and Max then equal one sequential
// fold of both row sequences; Sum is a's sum plus o's.
func (a *AggState) Merge(o AggState) {
	if o.Count == 0 {
		return
	}
	if a.Count == 0 {
		a.NaNFirst = o.NaNFirst
	}
	a.Count += o.Count
	a.Sum += o.Sum
	if o.Any {
		if !a.Any || o.Min < a.Min {
			a.Min = o.Min
		}
		if !a.Any || o.Max > a.Max {
			a.Max = o.Max
		}
		a.Any = true
	}
}

// Result finalizes the state as an aggregate of kind. COUNT yields BIGINT,
// every other kind DOUBLE; over zero rows SUM, AVG, MIN and MAX are 0. Every
// fold finalizes through it, so a result cannot depend on where it was
// folded; a NaN is always math.NaN(), as a sum's NaN payload depends on the
// operand order the compiler picks at each fold site.
func (a AggState) Result(kind expr.AggKind) table.Value {
	var x float64
	switch kind {
	case expr.Count:
		return table.I64(a.Count)
	case expr.Sum:
		x = a.Sum
	case expr.Avg:
		if a.Count > 0 {
			x = a.Sum / float64(a.Count)
		}
	case expr.Min:
		x = a.Min
	case expr.Max:
		x = a.Max
	default:
		panic(fmt.Sprintf("vec: unknown aggregate kind %d", uint8(kind)))
	}
	if x != x || a.NaNFirst && (kind == expr.Min || kind == expr.Max) {
		x = math.NaN()
	}
	return table.F64(x)
}

// AddCount registers n qualifying rows for COUNT(*) terms.
func (a *AggState) AddCount(n int64) { a.Count += n }

// AddI64 folds the selected lanes of an integer lane, in selection order, so
// float accumulation is sequential in row order.
func AddI64(a *AggState, lane []int64, sel []int32) {
	for _, r := range sel {
		a.Add(float64(lane[r]))
	}
}

// AddF64 folds the selected lanes of a float lane in selection order.
func AddF64(a *AggState, lane []float64, sel []int32) {
	for _, r := range sel {
		a.Add(lane[r])
	}
}

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
