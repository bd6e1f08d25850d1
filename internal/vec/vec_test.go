package vec

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rfabric/internal/expr"
	"rfabric/internal/geometry"
	"rfabric/internal/table"
)

var cmpOps = []expr.CmpOp{expr.Lt, expr.Le, expr.Eq, expr.Ne, expr.Ge, expr.Gt}

// boundary-heavy value pools
var i64Pool = []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, 42, math.MaxInt64 - 1, math.MaxInt64}
var f64Pool = []float64{math.Inf(-1), -1.5, math.Copysign(0, -1), 0, 0.25, 1e300, math.Inf(1), math.NaN()}
var charPool = []string{"", "a", "ash", "ash\x00x", "oak", "oakum", "zzzzzz"}

func randI64(rng *rand.Rand) int64 {
	if rng.Intn(3) == 0 {
		return i64Pool[rng.Intn(len(i64Pool))]
	}
	return rng.Int63() - rng.Int63()
}

func randF64(rng *rand.Rand) float64 {
	if rng.Intn(3) == 0 {
		return f64Pool[rng.Intn(len(f64Pool))]
	}
	return rng.NormFloat64() * 1e3
}

// colSchema holds one column of every type a batch column carries; its
// CHAR values are NUL-padded to the field width.
var colSchema = geometry.MustSchema(
	geometry.Column{Name: "big", Type: geometry.Int64, Width: 8},
	geometry.Column{Name: "int", Type: geometry.Int32, Width: 4},
	geometry.Column{Name: "day", Type: geometry.Date, Width: 4},
	geometry.Column{Name: "dbl", Type: geometry.Float64, Width: 8},
	geometry.Column{Name: "chr", Type: geometry.Char, Width: 6},
)

var i32Pool = []int32{math.MinInt32, math.MinInt32 + 1, -1, 0, 1, math.MaxInt32}

// randValue draws a boundary-heavy value of c's type: DOUBLE includes NaN
// and -0, CHAR includes the empty string and an embedded NUL.
func randValue(rng *rand.Rand, c geometry.Column) table.Value {
	switch c.Type {
	case geometry.Int64:
		return table.I64(randI64(rng))
	case geometry.Int32:
		if rng.Intn(3) == 0 {
			return table.I32(i32Pool[rng.Intn(len(i32Pool))])
		}
		return table.I32(int32(rng.Uint32()))
	case geometry.Date:
		return table.DateV(int32(rng.Intn(40000) - 20000))
	case geometry.Float64:
		return table.F64(randF64(rng))
	default:
		return table.Str(charPool[rng.Intn(len(charPool))])
	}
}

// colRows encodes n random rows of colSchema (table.EncodeRow) one per
// stride bytes from byte off of the returned buffer, and returns each
// row's values as table.DecodeColumn boxes them back.
func colRows(t *testing.T, rng *rand.Rand, n, off, stride int) ([]byte, [][]table.Value) {
	buf := make([]byte, off+n*stride)
	rows := make([][]table.Value, n)
	for i := range rows {
		vals := make([]table.Value, colSchema.NumColumns())
		for c := range vals {
			vals[c] = randValue(rng, colSchema.Column(c))
		}
		payload, err := table.EncodeRow(colSchema, vals...)
		if err != nil {
			t.Fatal(err)
		}
		copy(buf[off+i*stride:], payload)
		for c := range vals {
			vals[c] = table.DecodeColumn(colSchema.Column(c), payload[colSchema.Offset(c):])
		}
		rows[i] = vals
	}
	return buf, rows
}

// colValue boxes row r of a batch column by hand, as table.DecodeColumn
// would box the field it was read from.
func colValue(c *Col, r int32) table.Value {
	v := table.Value{Type: c.Type}
	switch c.Type {
	case geometry.Float64:
		v.Float = c.F64[r]
	case geometry.Char:
		o := c.Off + int(r)*c.Stride
		v.Bytes = c.Src[o : o+c.Width]
	default:
		v.Int = c.I64[r]
	}
	return v
}

// sameValue reports whether two boxed values are bit-identical: DOUBLE by
// its bits (NaN payloads and -0 included), CHAR by its padded field.
func sameValue(a, b table.Value) bool {
	return a.Type == b.Type && a.Int == b.Int &&
		math.Float64bits(a.Float) == math.Float64bits(b.Float) && bytes.Equal(a.Bytes, b.Bytes)
}

// asFloat is a boxed value as an aggregate folds it.
func asFloat(v table.Value) float64 {
	if v.Type == geometry.Float64 {
		return v.Float
	}
	return float64(v.Int)
}

// refHash is the engine's value hash written from its definition: FNV-1a
// over the column index and then the value, 8 little-endian bytes each
// (a DOUBLE by its bits), or a CHAR's bytes up to its first NUL.
func refHash(col int, v table.Value) uint64 {
	h := fnv.New64a()
	h.Write(binary.LittleEndian.AppendUint64(nil, uint64(col)))
	switch v.Type {
	case geometry.Float64:
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v.Float)))
	case geometry.Char:
		b := v.Bytes
		if i := bytes.IndexByte(b, 0); i >= 0 {
			b = b[:i]
		}
		h.Write(b)
	default:
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(v.Int)))
	}
	return h.Sum64()
}

// refFold is a sequential aggregate fold of xs written from AggState's
// rule: count and sum in order; min and max over the numbers, the first of
// equal values kept; nanFirst when the first value is NaN.
type refFold struct {
	count         int64
	sum, min, max float64
	any, nanFirst bool
}

func (f *refFold) add(x float64) {
	f.count++
	f.sum += x
	if x != x {
		f.nanFirst = f.nanFirst || f.count == 1
		return
	}
	if !f.any || x < f.min {
		f.min = x
	}
	if !f.any || x > f.max {
		f.max = x
	}
	f.any = true
}

func (f *refFold) matches(a AggState) bool {
	return a.Count == f.count && math.Float64bits(a.Sum) == math.Float64bits(f.sum) &&
		(a.flags&extAny != 0) == f.any && (a.flags&extNaNFirst != 0) == f.nanFirst &&
		(!f.any || math.Float64bits(a.Min) == math.Float64bits(f.min) && math.Float64bits(a.Max) == math.Float64bits(f.max))
}

// randSel is a random ascending selection of rows 0..n-1.
func randSel(rng *rand.Rand, n int) []int32 {
	var sel []int32
	for i := 0; i < n; i++ {
		if rng.Intn(3) != 0 {
			sel = append(sel, int32(i))
		}
	}
	return sel
}

// TestFilterMatchesPredicateEval checks Col.Filter and Col.Bitmap on every
// column type, under every operator, against Predicate.Eval on the boxed
// values, over dense decoded and gathered columns: the survivors, their
// order, and the fail depth of every dropped row.
func TestFilterMatchesPredicateEval(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n, off, stride = 512, 3, 37
	for trial := 0; trial < 20; trial++ {
		buf, rows := colRows(t, rng, n, off, stride)
		ids := make([]int32, n)
		for i := range ids {
			ids[i] = int32(rng.Intn(n))
		}
		for c := 0; c < colSchema.NumColumns(); c++ {
			def := colSchema.Column(c)
			dense, gathered := MakeCol(def, n), MakeCol(def, n)
			dense.Decode(buf, off+colSchema.Offset(c), stride, n)
			gathered.Gather(buf[off+colSchema.Offset(c):], stride, ids)
			for _, op := range cmpOps {
				operand := randValue(rng, def)
				if rng.Intn(2) == 0 { // an operand equal to a stored value
					operand = rows[rng.Intn(n)][c]
				}
				p := expr.Predicate{Col: c, Op: op, Operand: operand}
				vp := MakePred(op, operand)
				for _, in := range []struct {
					name string
					col  *Col
					row  func(i int) table.Value
				}{
					{"dense", &dense, func(i int) table.Value { return rows[i][c] }},
					{"gathered", &gathered, func(i int) table.Value { return rows[ids[i]][c] }},
				} {
					sel := randSel(rng, n)
					fail := make([]int16, n)
					for i := range fail {
						fail[i] = -1
					}
					want := []int32{}
					for _, r := range sel {
						if p.Eval(in.row(int(r))) {
							want = append(want, r)
						}
					}
					in0 := append([]int32(nil), sel...)
					got := in.col.Filter(&vp, sel, fail, 3)
					if !slices.Equal(got, want) {
						t.Fatalf("%s %s %s %s: Filter kept %v, want %v", in.name, def.Type, op, operand, got, want)
					}
					for _, r := range in0 {
						wantFail := int16(3)
						if slices.Contains(want, r) {
							wantFail = -1
						}
						if fail[r] != wantFail {
							t.Fatalf("%s %s %s: row %d has fail depth %d, want %d", in.name, def.Type, op, r, fail[r], wantFail)
						}
					}
					bm := make([]bool, n)
					in.col.Bitmap(bm, &vp, false)
					prev := make([]bool, n)
					for i := range prev {
						prev[i] = rng.Intn(2) == 0
					}
					refined := slices.Clone(prev)
					in.col.Bitmap(refined, &vp, true)
					for i := 0; i < n; i++ {
						if e := p.Eval(in.row(i)); bm[i] != e || refined[i] != (prev[i] && e) {
							t.Fatalf("%s %s %s: Bitmap row %d = %v (refined %v), want %v", in.name, def.Type, op, i, bm[i], refined[i], e)
						}
					}
				}
			}
		}
	}
}

// TestFilterCharMatchesPredicateEval checks Col.Filter on a CHAR column read
// in place at an offset inside wider rows, and on the same fields gathered,
// including trailing-NUL padding and embedded NULs.
func TestFilterCharMatchesPredicateEval(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const width, n, off, stride = 6, 256, 5, 11
	def := geometry.Column{Name: "c", Type: geometry.Char, Width: width}
	src := make([]byte, off+n*stride)
	vals := make([]table.Value, n)
	for i := 0; i < n; i++ {
		s := charPool[rng.Intn(len(charPool))]
		copy(src[off+i*stride:off+i*stride+width], s)
		// The scalar comparison trims trailing NULs itself, so the unpadded
		// spelling is the same logical value the kernel sees padded in src.
		vals[i] = table.Str(s)
	}
	inPlace, gathered := MakeCol(def, n), MakeCol(def, n)
	inPlace.Decode(src, off, stride, n)
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	gathered.Gather(src[off:], stride, ids)
	for trial := 0; trial < 30; trial++ {
		op := cmpOps[trial%len(cmpOps)]
		operand := charPool[rng.Intn(len(charPool))]
		padOp := make([]byte, width)
		copy(padOp, operand)
		p := expr.Predicate{Op: op, Operand: table.Str(operand)}
		vp := MakePred(op, table.Value{Type: geometry.Char, Bytes: padOp})
		for _, col := range []*Col{&inPlace, &gathered} {
			sel := slices.Clone(ids)
			fail := make([]int16, n)
			out := col.Filter(&vp, sel, fail, 0)
			j := 0
			for i := 0; i < n; i++ {
				if p.Eval(vals[i]) {
					if j >= len(out) || out[j] != int32(i) {
						t.Fatalf("Filter CHAR: row %d (%q %s %q) should survive", i, vals[i].Bytes, op, operand)
					}
					j++
				}
			}
			if j != len(out) {
				t.Fatalf("Filter CHAR: %d survivors, want %d", len(out), j)
			}
		}
	}
}

// TestCmpCharMatchesValueCompare pins the CHAR comparison against
// table.Value.Compare for every pool pair.
func TestCmpCharMatchesValueCompare(t *testing.T) {
	const width = 8
	pad := func(s string) []byte {
		b := make([]byte, width)
		copy(b, s)
		return b
	}
	for _, a := range charPool {
		for _, b := range charPool {
			want := table.Str(a).Compare(table.Str(b))
			got := CmpChar(pad(a), TrimPad(pad(b)))
			if got != want {
				t.Fatalf("CmpChar(%q, %q) = %d, want %d", a, b, got, want)
			}
		}
	}
}

// TestDecodeKernels checks every column type's batch column against the
// boxed values table.DecodeColumn reads from the same rows: dense decode
// (INT and DATE sign-extended, DOUBLE bit for bit, CHAR in place with its
// padding), gathers by row id, Take and Append, the projection checksum
// against the value hash written from its definition, and the aggregate
// add, group fold and derived-scalar compaction against a sequential fold
// of the boxed values.
func TestDecodeKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n, off, stride = 300, 4, 41
	for trial := 0; trial < 10; trial++ {
		buf, rows := colRows(t, rng, n, off, stride)
		ids := make([]int32, n/2)
		for i := range ids {
			ids[i] = int32(rng.Intn(n))
		}
		sel := randSel(rng, len(ids))
		// Three groups, keyed by row position mod 3, for the group fold.
		keys := Col{Type: geometry.Int64, I64: make([]int64, n)}
		for i := range keys.I64 {
			keys.I64[i] = int64(i % 3)
		}
		for c := 0; c < colSchema.NumColumns(); c++ {
			def := colSchema.Column(c)
			dense, gathered := MakeCol(def, n), MakeCol(def, len(ids))
			dense.Decode(buf, off+colSchema.Offset(c), stride, n)
			for i := 0; i < n; i++ {
				if got := colValue(&dense, int32(i)); !sameValue(got, rows[i][c]) {
					t.Fatalf("%s Decode row %d = %v, want %v", def.Type, i, got, rows[i][c])
				}
			}
			gathered.Gather(buf[off+colSchema.Offset(c):], stride, ids)
			took, appended := MakeCol(def, len(ids)), MakeCol(def, 0)
			took.Take(&dense, ids)
			appended.Append(&dense, ids[:len(ids)/2])
			appended.Append(&gathered, sel)
			for j, r := range ids {
				want := rows[r][c]
				if got := colValue(&gathered, int32(j)); !sameValue(got, want) {
					t.Fatalf("%s Gather row %d (id %d) = %v, want %v", def.Type, j, r, got, want)
				}
				if got := colValue(&took, int32(j)); !sameValue(got, want) {
					t.Fatalf("%s Take row %d (id %d) = %v, want %v", def.Type, j, r, got, want)
				}
			}
			wantApp := []int32{}
			wantApp = append(wantApp, ids[:len(ids)/2]...)
			for _, j := range sel {
				wantApp = append(wantApp, ids[j])
			}
			for e, r := range wantApp {
				if got := colValue(&appended, int32(e)); !sameValue(got, rows[r][c]) {
					t.Fatalf("%s Append entry %d = %v, want %v", def.Type, e, got, rows[r][c])
				}
			}

			var wantSum uint64
			for _, j := range sel {
				wantSum += refHash(c+7, rows[ids[j]][c])
			}
			if got := gathered.Checksum(c+7, sel); got != wantSum {
				t.Fatalf("%s Checksum = %#x, want %#x", def.Type, got, wantSum)
			}
			if def.Type == geometry.Char {
				continue // CHAR columns are never aggregated
			}

			var st AggState
			var want refFold
			gathered.AddTo(&st, sel)
			compacted := make([]float64, len(sel))
			gathered.Compact(compacted, sel)
			for k, j := range sel {
				x := asFloat(rows[ids[j]][c])
				want.add(x)
				if math.Float64bits(compacted[k]) != math.Float64bits(x) {
					t.Fatalf("%s Compact[%d] = %v, want %v", def.Type, k, compacted[k], x)
				}
			}
			if !want.matches(st) {
				t.Fatalf("%s AddTo = %+v, want %+v", def.Type, st, want)
			}

			// Three groups, keyed by row position mod 3: each kind's lane
			// finalizes as a sequential AggState fold of the group's values.
			kinds := []expr.AggKind{expr.Sum, expr.Avg, expr.Min, expr.Max, expr.Count}
			var g GroupTable
			g.Reset(kinds, []geometry.Column{{Type: geometry.Int64, Width: 8}})
			gids := make([]int32, n)
			all := make([]int32, n)
			for i := range all {
				all[i] = int32(i)
			}
			g.Assign(gids, []Col{keys}, all)
			for term := range kinds {
				dense.Fold(&g, term, gids, all)
			}
			var fin Col
			for term, kind := range kinds {
				g.FinishAggCol(&fin, term)
				for grp := 0; grp < g.Len(); grp++ {
					var want AggState
					for i := grp; i < n; i += 3 {
						want.Add(asFloat(rows[i][c]))
					}
					w := want.Result(kind)
					if got := g.State(grp, term).Result(kind); !sameValue(got, w) {
						t.Fatalf("%s Fold %s group %d = %v, want %v", def.Type, kind, grp, got, w)
					}
					if got := colValue(&fin, int32(grp)); !sameValue(got, w) {
						t.Fatalf("%s FinishAggCol %s group %d = %v, want %v", def.Type, kind, grp, got, w)
					}
				}
			}
		}
	}
}

// TestAggStateMatchesSequentialFold pins the accumulator update order
// (including its NaN min/max behavior) against a literal transcription of
// the engine's scalar accumulator.
func TestAggStateMatchesSequentialFold(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = randF64(rng)
		}
		var a AggState
		AddVals(&a, xs)

		var count int64
		var sum, min, max float64
		var any bool
		for _, x := range xs {
			count++
			sum += x
			if !any || x < min {
				min = x
			}
			if !any || x > max {
				max = x
			}
			any = true
		}
		if a.Count != count ||
			math.Float64bits(a.Sum) != math.Float64bits(sum) ||
			math.Float64bits(a.Min) != math.Float64bits(min) ||
			math.Float64bits(a.Max) != math.Float64bits(max) {
			t.Fatalf("AggState %+v, want count=%d sum=%v min=%v max=%v", a, count, sum, min, max)
		}
	}
}

// TestHashCharStopsAtNUL pins the CHAR hash window: bytes up to the first
// NUL, so padded and unpadded spellings of one logical value hash alike.
func TestHashCharStopsAtNUL(t *testing.T) {
	if HashChar(3, []byte("oak\x00\x00\x00")) != HashChar(3, []byte("oak")) {
		t.Fatal("padded CHAR hashes differently from unpadded")
	}
	if HashChar(3, []byte("oak\x00x")) != HashChar(3, []byte("oak")) {
		t.Fatal("bytes after an embedded NUL leaked into the hash")
	}
	if HashChar(3, []byte("oak")) == HashChar(4, []byte("oak")) {
		t.Fatal("column index not mixed into the hash")
	}
}

// TestKernelsDoNotAllocate pins the zero-allocation property of every
// batch column method on the steady-state scan path, on every column type,
// once the columns are sized.
func TestKernelsDoNotAllocate(t *testing.T) {
	const n, stride = BatchRows, 32
	rng := rand.New(rand.NewSource(6))
	buf, _ := colRows(t, rng, n, 0, stride)
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(rng.Intn(n))
	}
	sel := make([]int32, n)
	fail := make([]int16, n)
	dst := make([]bool, n)
	out := make([]float64, n)
	gids := make([]int32, n)
	var g GroupTable
	g.Reset([]expr.AggKind{expr.Sum, expr.Min, expr.Max, expr.Avg, expr.Count}, nil)
	g.Assign(gids, nil, ids)
	var st AggState
	type cols struct{ dense, gathered, took Col }
	all := make([]cols, colSchema.NumColumns())
	for c := range all {
		def := colSchema.Column(c)
		all[c] = cols{MakeCol(def, n), MakeCol(def, n), MakeCol(def, n)}
	}
	preds := make([]Pred, len(all))
	for c := range preds {
		preds[c] = MakePred(expr.Le, randValue(rng, colSchema.Column(c)))
	}
	allocs := testing.AllocsPerRun(10, func() {
		for c := range all {
			a := &all[c]
			for i := range sel {
				sel[i] = int32(i)
				fail[i] = -1
			}
			a.dense.Decode(buf, colSchema.Offset(c), stride, n)
			a.gathered.Gather(buf[colSchema.Offset(c):], stride, ids)
			a.took.Take(&a.dense, ids)
			s := a.took.Filter(&preds[c], sel, fail, 0)
			a.gathered.Bitmap(dst, &preds[c], c > 0)
			_ = a.dense.Checksum(c, s)
			if a.dense.Type != geometry.Char {
				a.dense.AddTo(&st, s)
				a.gathered.Fold(&g, c, gids, ids)
				a.dense.Compact(out[:len(s)], s)
				MulLanes(out[:len(s)], out[:len(s)])
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("kernel chain allocates %.1f times per run, want 0", allocs)
	}
}
