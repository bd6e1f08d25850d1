package vec

import (
	"bytes"
	"encoding/binary"
	"math"

	"rfabric/internal/expr"
	"rfabric/internal/geometry"
	"rfabric/internal/table"
)

// Col is one batch column in its lane format: the integer family (BIGINT,
// INT, DATE) as I64, DOUBLE as F64, CHAR as Width-byte fields, row r's at
// Src[Off+r*Stride:], read in place from the source buffer or gathered into
// the column's own storage. It is the one place that switches on a column's
// type for batch work: each method switches once per call, then runs a
// typed kernel over the call's rows. Rows are lane positions: the dense
// rows of a decoded batch, or the entries of a column built by Append.
//
// A Col sized for n rows (MakeCol, Reset) allocates nothing in Decode,
// Gather, Take, Filter, Bitmap, Checksum, AddTo, Fold or Compact once a
// CHAR column's gather storage has grown to its first batch; Append grows
// the column.
type Col struct {
	Type  geometry.ColumnType
	Width int
	I64   []int64
	F64   []float64
	Src   []byte
	Off   int
	// Stride is the byte distance between two rows' CHAR fields.
	Stride int
	own    []byte // gathered or appended CHAR fields
}

// MakeCol returns a column of def's type with lanes for n rows.
func MakeCol(def geometry.Column, n int) Col {
	var c Col
	c.Reset(def, n)
	return c
}

// Reset retypes the column as def with lanes for n rows, keeping its
// storage; lanes of another type keep theirs for a later Reset.
func (c *Col) Reset(def geometry.Column, n int) {
	c.Type, c.Width = def.Type, def.Width
	switch def.Type {
	case geometry.Float64:
		c.F64 = grow(c.F64, n)
	case geometry.Char:
		c.own = c.own[:0]
		c.Src, c.Off, c.Stride = c.own, 0, c.Width
	default:
		c.I64 = grow(c.I64, n)
	}
}

// grow returns s resized to n elements, reallocating only when it is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// field returns row r's CHAR field.
func (c *Col) field(r int32) []byte {
	o := c.Off + int(r)*c.Stride
	return c.Src[o : o+c.Width]
}

// Decode decodes n dense rows, row i's value at byte off+i*stride of src;
// a CHAR column reads its fields in place.
func (c *Col) Decode(src []byte, off, stride, n int) {
	switch c.Type {
	case geometry.Int64:
		for i := range c.I64[:n] {
			c.I64[i] = int64(binary.LittleEndian.Uint64(src[off:]))
			off += stride
		}
	case geometry.Int32, geometry.Date:
		for i := range c.I64[:n] {
			c.I64[i] = int64(int32(binary.LittleEndian.Uint32(src[off:])))
			off += stride
		}
	case geometry.Float64:
		for i := range c.F64[:n] {
			c.F64[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[off:]))
			off += stride
		}
	case geometry.Char:
		c.Src, c.Off, c.Stride = src, off, stride
	}
}

// Gather decodes row j from the value of rows[j], row r's value at byte
// r*stride of src, compacting scattered rows; a CHAR column copies the
// fields into its own storage.
func (c *Col) Gather(src []byte, stride int, rows []int32) {
	switch c.Type {
	case geometry.Int64:
		for j, r := range rows {
			c.I64[j] = int64(binary.LittleEndian.Uint64(src[int(r)*stride:]))
		}
	case geometry.Int32, geometry.Date:
		for j, r := range rows {
			c.I64[j] = int64(int32(binary.LittleEndian.Uint32(src[int(r)*stride:])))
		}
	case geometry.Float64:
		for j, r := range rows {
			c.F64[j] = math.Float64frombits(binary.LittleEndian.Uint64(src[int(r)*stride:]))
		}
	case geometry.Char:
		c.gatherChars(src, 0, stride, rows)
	}
}

// gatherChars copies the fields of rows, row r's at src[off+r*stride:],
// into the column's storage, grown to a whole batch on first use.
func (c *Col) gatherChars(src []byte, off, stride int, rows []int32) {
	w := c.Width
	if cap(c.own) < len(rows)*w {
		c.own = make([]byte, max(len(rows), BatchRows)*w)
	}
	dst := c.own[:cap(c.own)]
	for j, r := range rows {
		o := off + int(r)*stride
		copy(dst[j*w:(j+1)*w], src[o:o+w])
	}
	c.Src, c.Off, c.Stride = dst, 0, w
}

// Take sets row j to src's row idx[j]; src has the column's type family.
func (c *Col) Take(src *Col, idx []int32) {
	switch c.Type {
	case geometry.Float64:
		take(c.F64, src.F64, idx)
	case geometry.Char:
		c.gatherChars(src.Src, src.Off, src.Stride, idx)
	default:
		take(c.I64, src.I64, idx)
	}
}

func take[T int64 | float64](dst, src []T, idx []int32) {
	for j, i := range idx {
		dst[j] = src[i]
	}
}

// Append appends src's rows, in order, as the column's next entries.
func (c *Col) Append(src *Col, rows []int32) {
	switch c.Type {
	case geometry.Float64:
		c.F64 = appendRows(c.F64, src.F64, rows)
	case geometry.Char:
		for _, r := range rows {
			c.own = append(c.own, src.field(r)...)
		}
		c.Src, c.Off, c.Stride = c.own, 0, c.Width
	default:
		c.I64 = appendRows(c.I64, src.I64, rows)
	}
}

func appendRows[T int64 | float64](dst, src []T, rows []int32) []T {
	for _, r := range rows {
		dst = append(dst, src[r])
	}
	return dst
}

// Pred is one comparison with its operand unboxed once for every column
// type: I for the integer family, F for DOUBLE, B (pad-trimmed) for CHAR.
type Pred struct {
	Op expr.CmpOp
	I  int64
	F  float64
	B  []byte
}

// MakePred unboxes the comparison `column op v`.
func MakePred(op expr.CmpOp, v table.Value) Pred {
	return Pred{Op: op, I: v.Int, F: v.Float, B: TrimPad(v.Bytes)}
}

// Filter refines sel to the rows that satisfy p, in place (the surviving
// prefix is returned), and records depth in fail[r] for each row r it
// drops, so the engine's charge replay can reproduce each row's predicate
// short-circuit. Comparisons follow table.Value.Compare.
func (c *Col) Filter(p *Pred, sel []int32, fail []int16, depth int16) []int32 {
	switch c.Type {
	case geometry.Float64:
		return filter(c.F64, p.Op, p.F, sel, fail, depth)
	case geometry.Char:
		out := sel[:0]
		for _, r := range sel {
			if p.Op.Holds(CmpChar(c.field(r), p.B)) {
				out = append(out, r)
			} else {
				fail[r] = depth
			}
		}
		return out
	default:
		return filter(c.I64, p.Op, p.I, sel, fail, depth)
	}
}

func filter[T int64 | float64](lane []T, op expr.CmpOp, x T, sel []int32, fail []int16, depth int16) []int32 {
	out := sel[:0]
	for _, r := range sel {
		if op.Holds(threeWay(lane[r], x)) {
			out = append(out, r)
		} else {
			fail[r] = depth
		}
	}
	return out
}

// Bitmap evaluates p over the column's first len(dst) rows into dst, the
// COL engine's full-column selection pass. With refine only the rows
// still true are evaluated again, read-modify-writing the bitmap.
func (c *Col) Bitmap(dst []bool, p *Pred, refine bool) {
	switch c.Type {
	case geometry.Float64:
		bitmap(dst, c.F64, p.Op, p.F, refine)
	case geometry.Char:
		for i := range dst {
			if !refine || dst[i] {
				dst[i] = p.Op.Holds(CmpChar(c.field(int32(i)), p.B))
			}
		}
	default:
		bitmap(dst, c.I64, p.Op, p.I, refine)
	}
}

func bitmap[T int64 | float64](dst []bool, lane []T, op expr.CmpOp, x T, refine bool) {
	for i := range dst {
		if !refine || dst[i] {
			dst[i] = op.Holds(threeWay(lane[i], x))
		}
	}
}

// Checksum folds the selected values of projected column col into the
// order-insensitive FNV checksum, as HashI64/HashF64/HashChar hash one
// value. The column premix is constant across the call, so only the
// payload is mixed per row.
func (c *Col) Checksum(col int, sel []int32) uint64 {
	seed := mix8(fnvOffset, uint64(col))
	var sum uint64
	switch c.Type {
	case geometry.Float64:
		for _, r := range sel {
			sum += mix8(seed, math.Float64bits(c.F64[r]))
		}
	case geometry.Char:
		for _, r := range sel {
			sum += hashCharSeeded(seed, c.field(r))
		}
	default:
		for _, r := range sel {
			sum += mix8(seed, uint64(c.I64[r]))
		}
	}
	return sum
}

// AddTo folds the selected values into a, in selection order, so float
// accumulation is sequential in row order.
func (c *Col) AddTo(a *AggState, sel []int32) {
	if c.Type == geometry.Float64 {
		for _, r := range sel {
			a.Add(c.F64[r])
		}
		return
	}
	for _, r := range sel {
		a.Add(float64(c.I64[r]))
	}
}

// Fold folds row sel[j]'s value into group ids[j]'s state for term.
func (c *Col) Fold(g *GroupTable, term int, ids, sel []int32) {
	if c.Type == geometry.Float64 {
		fold(g, term, ids, c.F64, sel)
		return
	}
	fold(g, term, ids, c.I64, sel)
}

func fold[T int64 | float64](g *GroupTable, term int, ids []int32, lane []T, sel []int32) {
	for j, r := range sel {
		g.states[int(ids[j])*g.nAggs+term].Add(float64(lane[r]))
	}
}

// Compact widens the selected values into dst, compacted, for derived
// scalar evaluation.
func (c *Col) Compact(dst []float64, sel []int32) {
	if c.Type == geometry.Float64 {
		compact(dst, c.F64, sel)
		return
	}
	compact(dst, c.I64, sel)
}

func compact[T int64 | float64](dst []float64, lane []T, sel []int32) {
	for j, r := range sel {
		dst[j] = float64(lane[r])
	}
}

// AppendJoinKey appends the join-key encoding of row r, or reports false
// when the value can never match.
func (c *Col) AppendJoinKey(dst []byte, r int32) ([]byte, bool) {
	switch c.Type {
	case geometry.Float64:
		return AppendJoinKeyF64(dst, c.F64[r])
	case geometry.Char:
		return AppendJoinKeyChar(dst, c.field(r)), true
	default:
		return AppendJoinKeyI64(dst, c.I64[r]), true
	}
}

// putKeys writes key field f of each selected row into keys, row j's key
// at keys[j*n:(j+1)*n], in the group-key format.
func (c *Col) putKeys(keys []byte, n int, f *keyField, sel []int32) {
	switch c.Type {
	case geometry.Float64:
		for j, r := range sel {
			k, x := keys[j*n:(j+1)*n], c.F64[r]
			binary.BigEndian.PutUint64(k[f.off:], orderBits(x))
			binary.LittleEndian.PutUint64(k[f.raw:], math.Float64bits(x))
		}
	case geometry.Char:
		for j, r := range sel {
			k := keys[j*n+f.off : j*n+f.off+f.width]
			clear(k[copy(k, c.field(r)):])
		}
	default:
		for j, r := range sel {
			binary.BigEndian.PutUint64(keys[j*n+f.off:], uint64(c.I64[r])^1<<63)
		}
	}
}

// Cmp compares rows a and b by table.Value.Compare's rule: NaN compares
// equal to everything, CHAR compares pad-trimmed bytes. The DOUBLE case,
// an aggregate's, inlines into a sort's comparator.
func (c *Col) Cmp(a, b int32) int {
	if c.Type != geometry.Float64 {
		return c.cmpOther(a, b)
	}
	return threeWay(c.F64[a], c.F64[b])
}

func (c *Col) cmpOther(a, b int32) int {
	if c.Type == geometry.Char {
		return bytes.Compare(TrimPad(c.field(a)), TrimPad(c.field(b)))
	}
	return threeWay(c.I64[a], c.I64[b])
}

// HasNaN reports whether a DOUBLE column holds a NaN.
func (c *Col) HasNaN() bool {
	if c.Type != geometry.Float64 {
		return false
	}
	for _, x := range c.F64 {
		if x != x {
			return true
		}
	}
	return false
}
