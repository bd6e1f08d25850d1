package vec

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"rfabric/internal/expr"
	"rfabric/internal/geometry"
	"rfabric/internal/table"
)

// groupBatch is one random batch with an integer, a float, and an in-place
// CHAR key column (stride 10, field width 6, at offset 2), plus a float
// aggregate input lane. The small domains make groups repeat and hit the
// encoding's corners: -0/+0, NaN payloads, trailing vs embedded NUL.
type groupBatch struct {
	ints   []int64
	floats []float64
	chars  []byte
	vals   []float64
	sel    []int32
}

var groupCharPool = []string{"", "oak", "oak\x00", "oak\x00x", "ash"}

func newGroupBatch(rng *rand.Rand, n int) *groupBatch {
	b := &groupBatch{
		ints:   make([]int64, n),
		floats: make([]float64, n),
		chars:  make([]byte, n*10),
		vals:   make([]float64, n),
	}
	floatKeys := []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000002), 2.5}
	for i := 0; i < n; i++ {
		b.ints[i] = int64(rng.Intn(5)) - 2
		b.floats[i] = floatKeys[rng.Intn(len(floatKeys))]
		copy(b.chars[i*10+2:i*10+8], groupCharPool[rng.Intn(len(groupCharPool))])
		b.vals[i] = randF64(rng)
		if rng.Intn(4) != 0 {
			b.sel = append(b.sel, int32(i))
		}
	}
	return b
}

func (b *groupBatch) keys() []Col {
	return []Col{
		{Type: geometry.Int64, I64: b.ints},
		{Type: geometry.Float64, F64: b.floats},
		{Type: geometry.Char, Src: b.chars, Off: 2, Stride: 10, Width: 6},
	}
}

// valCol is the aggregate input lane as a column.
func (b *groupBatch) valCol() *Col { return &Col{Type: geometry.Float64, F64: b.vals} }

// groupKeyCols are groupBatch's key columns.
var groupKeyCols = []geometry.Column{{Type: geometry.Int64}, {Type: geometry.Float64}, {Type: geometry.Char, Width: 6}}

// encode is row r's group key: the three ordered fields, then the float's
// raw bits.
func (b *groupBatch) encode(r int32) string {
	k := binary.BigEndian.AppendUint64(nil, uint64(b.ints[r])^1<<63)
	k = binary.BigEndian.AppendUint64(k, orderBits(b.floats[r]))
	k = append(k, b.chars[int(r)*10+2:int(r)*10+8]...)
	return string(AppendKeyF64(k, b.floats[r]))
}

// TestGroupTableMatchesSequentialFold checks the hash-group kernel against a
// row-at-a-time reference over several batches: a map from the encoded key
// to a count and sequentially folded states. Groups, their first-seen
// order, counts, and every aggregate field match bit for bit.
func TestGroupTableMatchesSequentialFold(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type ref struct {
		id     int32
		count  int64
		sum    AggState
		count2 AggState
	}
	refs := map[string]*ref{}
	var order []string
	var g GroupTable
	g.Reset(2, groupKeyCols)
	for batch := 0; batch < 8; batch++ {
		b := newGroupBatch(rng, 1+rng.Intn(BatchRows))
		ids := make([]int32, len(b.sel))
		g.Assign(ids, b.keys(), b.sel)
		firstNew := g.Len() - len(g.Created())
		for i, r := range g.Created() {
			if got, want := string(g.Key(firstNew+i)), b.encode(r); got != want {
				t.Fatalf("batch %d: created group %d has key %q, its row encodes %q", batch, firstNew+i, got, want)
			}
		}
		b.valCol().Fold(&g, 0, ids, b.sel)
		g.FoldCount(1, ids)

		for j, r := range b.sel {
			k := b.encode(r)
			e, ok := refs[k]
			if !ok {
				e = &ref{id: int32(len(order))}
				refs[k] = e
				order = append(order, k)
			}
			if ids[j] != e.id {
				t.Fatalf("batch %d row %d: group id %d, want %d", batch, r, ids[j], e.id)
			}
			e.count++
			e.sum.Add(b.vals[r])
			e.count2.AddCount(1)
		}
	}
	if g.Len() != len(order) {
		t.Fatalf("%d groups, want %d", g.Len(), len(order))
	}
	same := func(a, b AggState) bool {
		return a.Count == b.Count && a.Any == b.Any &&
			math.Float64bits(a.Sum) == math.Float64bits(b.Sum) &&
			math.Float64bits(a.Min) == math.Float64bits(b.Min) &&
			math.Float64bits(a.Max) == math.Float64bits(b.Max)
	}
	for gi, k := range order {
		e := refs[k]
		if string(g.Key(gi)) != k || g.Count(gi) != e.count {
			t.Fatalf("group %d: key %q count %d, want %q %d", gi, g.Key(gi), g.Count(gi), k, e.count)
		}
		if !same(g.State(gi, 0), e.sum) || !same(g.State(gi, 1), e.count2) {
			t.Fatalf("group %d states %+v %+v, want %+v %+v", gi, g.State(gi, 0), g.State(gi, 1), e.sum, e.count2)
		}
	}
	// -0/+0 and the two NaN payloads are distinct float keys.
	var floats GroupTable
	floats.Reset(0, []geometry.Column{{Type: geometry.Float64}})
	lane := []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000002), 0}
	ids := make([]int32, len(lane))
	floats.Assign(ids, []Col{{Type: geometry.Float64, F64: lane}}, []int32{0, 1, 2, 3, 4})
	if floats.Len() != 4 || ids[4] != ids[0] {
		t.Fatalf("float keys: %d groups, ids %v; want 4 groups with rows 0 and 4 together", floats.Len(), ids)
	}
}

// TestGroupTableSteadyStateDoesNotAllocate pins the zero-alloc property:
// once a batch's groups exist, assigning and folding it again allocates
// nothing.
func TestGroupTableSteadyStateDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := newGroupBatch(rng, BatchRows)
	keys, vals := b.keys(), b.valCol()
	ids := make([]int32, len(b.sel))
	var g GroupTable
	g.Reset(2, groupKeyCols)
	g.Assign(ids, keys, b.sel)
	allocs := testing.AllocsPerRun(20, func() {
		g.Assign(ids, keys, b.sel)
		vals.Fold(&g, 0, ids, b.sel)
		g.FoldVals(1, ids, b.vals[:len(ids)])
	})
	if allocs != 0 {
		t.Fatalf("steady-state group batch allocates %.1f times", allocs)
	}
	if len(g.Created()) != 0 {
		t.Fatalf("a repeated batch created %d groups", len(g.Created()))
	}
}

// TestAggStateMergeMatchesSequentialFold splits random sequences, heavy in
// NaN, -0 and +0, at random points (empty parts included), folds each part
// into its own state and merges the states in order: Count, Min, Max, Any
// and NaNFirst equal one sequential fold of the whole sequence, and so does
// every kind's Result, bit for bit (a NaN sum finalizes to the one NaN
// whatever payload its additions kept). A NaN that leads a later part must
// not hide the numbers after it.
func TestAggStateMergeMatchesSequentialFold(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pool := []float64{math.NaN(), math.Float64frombits(0x7ff8000000000002), math.Copysign(0, -1), 0, -1.5, 2, math.Inf(1)}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for trial := 0; trial < 2000; trial++ {
		xs := make([]float64, rng.Intn(12))
		for i := range xs {
			xs[i] = pool[rng.Intn(len(pool))]
		}
		if trial%3 == 0 && len(xs) > 1 {
			xs[0] = 3 // a number leads; NaN-led parts follow
		}
		var seq AggState
		AddVals(&seq, xs)

		cuts := []int{0}
		for range rng.Intn(4) {
			cuts = append(cuts, rng.Intn(len(xs)+1))
		}
		cuts = append(cuts, len(xs))
		for i := 1; i < len(cuts); i++ { // sorted cut points, repeats give empty parts
			for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
				cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
			}
		}
		var merged AggState
		for p := 0; p+1 < len(cuts); p++ {
			var part AggState
			AddVals(&part, xs[cuts[p]:cuts[p+1]])
			merged.Merge(part)
		}
		if merged.Count != seq.Count || merged.Any != seq.Any || merged.NaNFirst != seq.NaNFirst ||
			!same(merged.Min, seq.Min) || !same(merged.Max, seq.Max) {
			t.Fatalf("trial %d: %v split at %v merges to %+v, want %+v", trial, xs, cuts, merged, seq)
		}
		for _, kind := range []expr.AggKind{expr.Count, expr.Sum, expr.Avg, expr.Min, expr.Max} {
			got, want := merged.Result(kind), seq.Result(kind)
			if got.Int != want.Int || !same(got.Float, want.Float) {
				t.Fatalf("trial %d: %v split at %v: merged %s = %v (%#x), sequential %v (%#x)", trial, xs, cuts,
					kind, got, math.Float64bits(got.Float), want, math.Float64bits(want.Float))
			}
		}
	}
}

// TestAggStateResultKeepsTheSequentialRule pins MIN and MAX to the rule of
// a sequential `x < min` fold: the first of equal values, numbers past a
// NaN, and NaN when a NaN comes first.
func TestAggStateResultKeepsTheSequentialRule(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	for _, c := range []struct {
		xs       []float64
		min, max float64
	}{
		{[]float64{0, negZero}, 0, 0},
		{[]float64{negZero, 0}, negZero, negZero},
		{[]float64{1, nan, -2, 5}, -2, 5},
		{[]float64{nan, 1, -2}, nan, nan},
		{[]float64{nan}, nan, nan},
		{nil, 0, 0},
	} {
		var a AggState
		AddVals(&a, c.xs)
		lo, hi := a.Result(expr.Min).Float, a.Result(expr.Max).Float
		if math.Float64bits(lo) != math.Float64bits(c.min) && !(math.IsNaN(lo) && math.IsNaN(c.min)) ||
			math.Float64bits(hi) != math.Float64bits(c.max) && !(math.IsNaN(hi) && math.IsNaN(c.max)) {
			t.Errorf("%v: MIN %v MAX %v, want %v %v", c.xs, lo, hi, c.min, c.max)
		}
	}
}

// TestGroupTableMergeMatchesOneTable folds random batches into one table
// and, split at a random batch, into two tables merged in order: the
// merged table has the same groups in the same first-seen order, with the
// same counts and, per state, the same Count, Min, Max and flags.
func TestGroupTableMergeMatchesOneTable(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		batches := make([]*groupBatch, 1+rng.Intn(4))
		for i := range batches {
			batches[i] = newGroupBatch(rng, 1+rng.Intn(300))
		}
		split := rng.Intn(len(batches) + 1)
		var whole, merged GroupTable
		parts := []*GroupTable{new(GroupTable), new(GroupTable)}
		whole.Reset(1, groupKeyCols)
		merged.Reset(1, nil)
		for _, p := range parts {
			p.Reset(1, groupKeyCols)
		}
		for i, b := range batches {
			part := parts[0]
			if i >= split {
				part = parts[1]
			}
			for _, g := range []*GroupTable{&whole, part} {
				ids := make([]int32, len(b.sel))
				g.Assign(ids, b.keys(), b.sel)
				b.valCol().Fold(g, 0, ids, b.sel)
			}
		}
		var created int
		for _, p := range parts {
			merged.Merge(p)
			created += len(merged.Created())
		}
		if merged.Len() != whole.Len() || created != whole.Len() {
			t.Fatalf("trial %d: %d merged groups (%d created), want %d", trial, merged.Len(), created, whole.Len())
		}
		for g := 0; g < whole.Len(); g++ {
			a, b := merged.State(g, 0), whole.State(g, 0)
			if string(merged.Key(g)) != string(whole.Key(g)) || merged.Count(g) != whole.Count(g) ||
				a.Count != b.Count || a.Any != b.Any || a.NaNFirst != b.NaNFirst ||
				math.Float64bits(a.Min) != math.Float64bits(b.Min) || math.Float64bits(a.Max) != math.Float64bits(b.Max) {
				t.Fatalf("trial %d group %d: %q %d %+v, want %q %d %+v", trial, g,
					merged.Key(g), merged.Count(g), a, whole.Key(g), whole.Count(g), b)
			}
		}
	}
}

// refKeyCmp is the canonical group order's rule stated on values: key
// columns in turn, DOUBLE by cmp.Compare (NaN first, -0 == +0), integers by
// value, CHAR by its pad-trimmed bytes; rows equal on every column by those
// rules are ordered by refKey.
func refKeyCmp(cols []geometry.Column, a, b []table.Value) int {
	for k, c := range cols {
		var r int
		switch c.Type {
		case geometry.Float64:
			r = cmp.Compare(a[k].Float, b[k].Float)
		case geometry.Char:
			r = bytes.Compare(TrimPad(a[k].Bytes), TrimPad(b[k].Bytes))
		default:
			r = cmp.Compare(a[k].Int, b[k].Int)
		}
		if r != 0 {
			return r
		}
	}
	return bytes.Compare(refKey(cols, a), refKey(cols, b))
}

// refKey is a variable-width encoding that is equal for two rows exactly
// when they are the same group: integers as 8 little-endian bytes, DOUBLE
// as its raw bits (so -0/+0 and NaN payloads differ), CHAR as its
// pad-trimmed bytes and a 0xff separator.
func refKey(cols []geometry.Column, vals []table.Value) []byte {
	var k []byte
	for i, c := range cols {
		switch c.Type {
		case geometry.Float64:
			k = binary.LittleEndian.AppendUint64(k, math.Float64bits(vals[i].Float))
		case geometry.Char:
			k = append(append(k, TrimPad(vals[i].Bytes)...), 0xff)
		default:
			k = binary.LittleEndian.AppendUint64(k, uint64(vals[i].Int))
		}
	}
	return k
}

// TestGroupKeyOrderMatchesReference holds the group-key format to the
// canonical order's rule stated on values, over random key columns and
// values heavy in corners (NaN payloads of both signs, ±0, ±Inf, extreme
// integers, CHAR with embedded and trailing NULs and 0xff): bytes.Compare
// on two rows' keys agrees in sign with refKeyCmp, and the keys are equal
// exactly when refKey is. Every group decodes back to its rows' values bit
// for bit with CHAR re-padded to width, and KeyValues' copies outlive a
// Reset.
func TestGroupKeyOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	floats := []float64{math.NaN(), math.Float64frombits(0x7ff8000000000002), math.Float64frombits(0xfff8000000000001),
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1.5, -1.5, math.SmallestNonzeroFloat64,
		-math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64}
	ints := []int64{math.MinInt64, math.MaxInt64, math.MinInt32, math.MaxInt32, -1, 0, 1, 255, 256}
	types := []geometry.ColumnType{geometry.Int64, geometry.Int32, geometry.Date, geometry.Float64, geometry.Char}
	for trial := 0; trial < 60; trial++ {
		cols := make([]geometry.Column, 1+rng.Intn(3))
		for i := range cols {
			cols[i] = geometry.Column{Type: types[rng.Intn(len(types))]}
			if cols[i].Type == geometry.Char {
				cols[i].Width = 1 + rng.Intn(5)
			}
		}
		n := 1 + rng.Intn(120)
		rows := make([][]table.Value, n)
		kcols := make([]Col, len(cols))
		for k, c := range cols {
			kc := &kcols[k]
			kc.Type, kc.Width = c.Type, c.Width
			switch c.Type {
			case geometry.Float64:
				kc.F64 = make([]float64, n)
			case geometry.Char:
				kc.Src, kc.Stride = make([]byte, n*c.Width), c.Width
			default:
				kc.I64 = make([]int64, n)
			}
		}
		for r := range rows {
			rows[r] = make([]table.Value, len(cols))
			for k, c := range cols {
				v := table.Value{Type: c.Type}
				switch kc := &kcols[k]; c.Type {
				case geometry.Float64:
					v.Float = floats[rng.Intn(len(floats))]
					kc.F64[r] = v.Float
				case geometry.Char:
					field := kc.Src[r*c.Width : (r+1)*c.Width]
					for i := range field[:rng.Intn(c.Width+1)] {
						field[i] = []byte{0, 'a', 'b', 0xff}[rng.Intn(4)]
					}
					v.Bytes = field
				case geometry.Int64:
					v.Int = ints[rng.Intn(len(ints))]
					kc.I64[r] = v.Int
				default:
					v.Int = int64(int32(ints[rng.Intn(len(ints))]))
					kc.I64[r] = v.Int
				}
				rows[r][k] = v
			}
		}

		var g GroupTable
		g.Reset(0, cols)
		sel := make([]int32, n)
		for i := range sel {
			sel[i] = int32(i)
		}
		ids := make([]int32, n)
		g.Assign(ids, kcols, sel)
		keys := make([][]byte, n)
		for r, row := range rows {
			keys[r] = g.Key(int(ids[r]))
			for k, want := range row {
				got := g.KeyValue(int(ids[r]), k)
				if got.Type != want.Type || got.Int != want.Int ||
					math.Float64bits(got.Float) != math.Float64bits(want.Float) || !bytes.Equal(got.Bytes, want.Bytes) {
					t.Fatalf("trial %d row %d column %d: decodes to %#v, want %#v", trial, r, k, got, want)
				}
			}
		}
		for a := range rows {
			for b := range rows {
				got, want := bytes.Compare(keys[a], keys[b]), refKeyCmp(cols, rows[a], rows[b])
				if got != want {
					t.Fatalf("trial %d: %v vs %v: bytes.Compare %d, reference %d", trial, rows[a], rows[b], got, want)
				}
				if sameKey, sameGroup := got == 0, bytes.Equal(refKey(cols, rows[a]), refKey(cols, rows[b])); sameKey != sameGroup {
					t.Fatalf("trial %d: %v vs %v: equal keys %v, same group %v", trial, rows[a], rows[b], sameKey, sameGroup)
				}
			}
		}

		boxed := make([]table.Value, n*len(cols))
		g.KeyValues(boxed, ids)
		g.Reset(0, cols)
		for i := range sel {
			sel[i] = int32(n - 1 - i)
		}
		g.Assign(ids, kcols, sel)
		for r, row := range rows {
			for k, want := range row {
				if got := boxed[r*len(cols)+k]; got.Type == geometry.Char && !bytes.Equal(got.Bytes, want.Bytes) {
					t.Fatalf("trial %d row %d: boxed CHAR %q changed to %q after Reset", trial, r, want.Bytes, got.Bytes)
				}
			}
		}
	}
}

// TestHashKeySpreadsGroupKeys: a group key puts a small integer's bits at
// the top of a big-endian word, and the index keeps only the hash's low
// bits, so the hash must carry the high input bits down. 4096 consecutive
// BIGINT keys must land on about as many distinct slots of 8192 as random
// hashes would (about 3,200).
func TestHashKeySpreadsGroupKeys(t *testing.T) {
	var g GroupTable
	g.Reset(0, []geometry.Column{{Type: geometry.Int64}})
	xs, sel := make([]int64, 4096), make([]int32, 4096)
	for i := range xs {
		xs[i], sel[i] = int64(i), int32(i)
	}
	g.Assign(make([]int32, len(sel)), []Col{{Type: geometry.Int64, I64: xs}}, sel)
	slots := map[uint64]bool{}
	for i := 0; i < g.Len(); i++ {
		slots[hashKey(g.Key(i))&8191] = true
	}
	if len(slots) < 2800 {
		t.Fatalf("4096 consecutive keys hash to %d of 8192 slots", len(slots))
	}
}
