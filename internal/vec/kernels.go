package vec

import (
	"encoding/binary"
	"math"

	"rfabric/internal/expr"
)

// Decode kernels: stride-aware bulk decode from a row-major buffer into a
// typed lane. They replace per-row table.DecodeColumn calls; the source
// layout (base table payload, fabric-packed chunk, or dense column array) is
// expressed as (src, off, stride).

// DecodeI64 decodes n BIGINT values starting at byte off, one per stride.
func DecodeI64(dst []int64, src []byte, off, stride, n int) {
	for i := 0; i < n; i++ {
		dst[i] = int64(binary.LittleEndian.Uint64(src[off : off+8]))
		off += stride
	}
}

// DecodeI32 decodes n INT/DATE values, sign-extending like the row codec.
func DecodeI32(dst []int64, src []byte, off, stride, n int) {
	for i := 0; i < n; i++ {
		dst[i] = int64(int32(binary.LittleEndian.Uint32(src[off : off+4])))
		off += stride
	}
}

// DecodeF64 decodes n DOUBLE values.
func DecodeF64(dst []float64, src []byte, off, stride, n int) {
	for i := 0; i < n; i++ {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[off : off+8]))
		off += stride
	}
}

// Gather kernels: compacting decode of scattered rows from a dense column
// array (stride == width), used by the COL engine's tuple reconstruction.

// GatherI64 decodes dst[j] from row sel[j] of a dense BIGINT array.
func GatherI64(dst []int64, src []byte, width int, sel []int32) {
	for j, r := range sel {
		o := int(r) * width
		dst[j] = int64(binary.LittleEndian.Uint64(src[o : o+8]))
	}
}

// GatherI32 decodes dst[j] from row sel[j] of a dense INT/DATE array.
func GatherI32(dst []int64, src []byte, width int, sel []int32) {
	for j, r := range sel {
		o := int(r) * width
		dst[j] = int64(int32(binary.LittleEndian.Uint32(src[o : o+4])))
	}
}

// GatherF64 decodes dst[j] from row sel[j] of a dense DOUBLE array.
func GatherF64(dst []float64, src []byte, width int, sel []int32) {
	for j, r := range sel {
		o := int(r) * width
		dst[j] = math.Float64frombits(binary.LittleEndian.Uint64(src[o : o+8]))
	}
}

// GatherBytes copies the width-byte field of row sel[j] of a strided buffer
// (row r at src[r*stride:]) to dst[j*width:], compacting scattered CHAR
// fields for the batch kernels.
func GatherBytes(dst, src []byte, stride, width int, sel []int32) {
	for j, r := range sel {
		o := int(r) * stride
		copy(dst[j*width:(j+1)*width], src[o:o+width])
	}
}

// Filter kernels: selection-vector refinement. Each keeps the rows whose
// lane value satisfies (op, operand) and records the failing predicate depth
// in fail[row] for the rows it drops, so the engine's charge-replay loop can
// reproduce each row's predicate short-circuit exactly. sel is refined in place (the
// surviving prefix is returned).

// FilterI64 refines sel over an integer lane.
func FilterI64(lane []int64, op expr.CmpOp, operand int64, sel []int32, fail []int16, depth int16) []int32 {
	out := sel[:0]
	for _, r := range sel {
		if op.Holds(CmpI64(lane[r], operand)) {
			out = append(out, r)
		} else {
			fail[r] = depth
		}
	}
	return out
}

// FilterF64 refines sel over a float lane (NaN compares as cmp 0).
func FilterF64(lane []float64, op expr.CmpOp, operand float64, sel []int32, fail []int16, depth int16) []int32 {
	out := sel[:0]
	for _, r := range sel {
		if op.Holds(CmpF64(lane[r], operand)) {
			out = append(out, r)
		} else {
			fail[r] = depth
		}
	}
	return out
}

// FilterChar refines sel over an in-place CHAR column of the given layout.
// operand must be pre-trimmed with TrimPad.
func FilterChar(src []byte, off, stride, width int, op expr.CmpOp, operand []byte, sel []int32, fail []int16, depth int16) []int32 {
	out := sel[:0]
	for _, r := range sel {
		o := off + int(r)*stride
		if op.Holds(CmpChar(src[o:o+width], operand)) {
			out = append(out, r)
		} else {
			fail[r] = depth
		}
	}
	return out
}

// Bitmap compare kernels for the COL engine's full-column selection passes.
// With refine=false every row is evaluated (first pass); with refine=true
// only rows still true are re-evaluated, read-modify-writing the bitmap.

// CmpBitmapI64 evaluates an integer lane into dst.
func CmpBitmapI64(dst []bool, lane []int64, op expr.CmpOp, operand int64, refine bool) {
	for i := range dst {
		if refine && !dst[i] {
			continue
		}
		dst[i] = op.Holds(CmpI64(lane[i], operand))
	}
}

// CmpBitmapF64 evaluates a float lane into dst.
func CmpBitmapF64(dst []bool, lane []float64, op expr.CmpOp, operand float64, refine bool) {
	for i := range dst {
		if refine && !dst[i] {
			continue
		}
		dst[i] = op.Holds(CmpF64(lane[i], operand))
	}
}

// CmpBitmapChar evaluates rows base.. of a dense CHAR array into dst.
// operand must be pre-trimmed with TrimPad.
func CmpBitmapChar(dst []bool, src []byte, width, base int, op expr.CmpOp, operand []byte, refine bool) {
	for i := range dst {
		if refine && !dst[i] {
			continue
		}
		o := (base + i) * width
		dst[i] = op.Holds(CmpChar(src[o:o+width], operand))
	}
}

// Checksum kernels: fold the selected values of one projected column into
// the order-insensitive FNV checksum, as HashI64/HashF64/HashChar hash one
// value. The hash of a value is mix8(mix8(offset, col), payload); the
// column premix is constant across a kernel call, so each kernel computes
// it once and folds only the payload per row.

// ChecksumI64 folds selected integer lanes.
func ChecksumI64(col int, lane []int64, sel []int32) uint64 {
	seed := mix8(fnvOffset, uint64(col))
	var sum uint64
	for _, r := range sel {
		sum += mix8(seed, uint64(lane[r]))
	}
	return sum
}

// ChecksumF64 folds selected float lanes.
func ChecksumF64(col int, lane []float64, sel []int32) uint64 {
	seed := mix8(fnvOffset, uint64(col))
	var sum uint64
	for _, r := range sel {
		sum += mix8(seed, math.Float64bits(lane[r]))
	}
	return sum
}

// hashCharSeeded continues a CHAR hash from the precomputed column seed.
func hashCharSeeded(seed uint64, b []byte) uint64 {
	h := seed
	for _, c := range b {
		if c == 0 {
			break
		}
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// ChecksumChar folds selected CHAR fields in place from a row-major buffer.
func ChecksumChar(col int, src []byte, off, stride, width int, sel []int32) uint64 {
	seed := mix8(fnvOffset, uint64(col))
	var sum uint64
	for _, r := range sel {
		o := off + int(r)*stride
		sum += hashCharSeeded(seed, src[o:o+width])
	}
	return sum
}

// Lane arithmetic for derived aggregate expressions (compacted to the
// selection): each row's value is computed with the same per-row operation
// order as Scalar.EvalF, so float results are bit-identical.

// FillF64 sets every element of dst to v.
func FillF64(dst []float64, v float64) {
	for i := range dst {
		dst[i] = v
	}
}

// CompactLaneI64 widens selected integer lanes into a compacted float vector.
func CompactLaneI64(dst []float64, lane []int64, sel []int32) {
	for j, r := range sel {
		dst[j] = float64(lane[r])
	}
}

// CompactLaneF64 copies selected float lanes into a compacted vector.
func CompactLaneF64(dst []float64, lane []float64, sel []int32) {
	for j, r := range sel {
		dst[j] = lane[r]
	}
}

// AddLanes computes dst[i] += b[i].
func AddLanes(dst, b []float64) {
	for i := range dst {
		dst[i] += b[i]
	}
}

// SubLanes computes dst[i] -= b[i].
func SubLanes(dst, b []float64) {
	for i := range dst {
		dst[i] -= b[i]
	}
}

// MulLanes computes dst[i] *= b[i].
func MulLanes(dst, b []float64) {
	for i := range dst {
		dst[i] *= b[i]
	}
}
