package vec

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"rfabric/internal/expr"
	"rfabric/internal/geometry"
	"rfabric/internal/table"
)

// groupBatch is one random batch with an integer, a float, and an in-place
// CHAR key column (stride 10, field width 6, at offset 2), plus a DOUBLE
// and a BIGINT aggregate input lane. The small domains make groups repeat
// and hit the encoding's corners: -0/+0, NaN payloads, trailing vs
// embedded NUL. The input lanes are heavy in the aggregates' corners: NaN
// (two payloads) first in a group and after its numbers, -0/+0, ±Inf, and
// the int64 extremes.
type groupBatch struct {
	ints   []int64
	floats []float64
	chars  []byte
	vals   []float64
	ivals  []int64
	sel    []int32
}

var groupCharPool = []string{"", "oak", "oak\x00", "oak\x00x", "ash"}

// aggValPool holds the DOUBLE aggregate inputs' corners.
var aggValPool = []float64{math.NaN(), math.Float64frombits(0x7ff8000000000002), math.Copysign(0, -1), 0,
	math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, 2.5}

func newGroupBatch(rng *rand.Rand, n int) *groupBatch {
	b := &groupBatch{
		ints:   make([]int64, n),
		floats: make([]float64, n),
		chars:  make([]byte, n*10),
		vals:   make([]float64, n),
		ivals:  make([]int64, n),
	}
	floatKeys := []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000002), 2.5}
	for i := 0; i < n; i++ {
		b.ints[i] = int64(rng.Intn(5)) - 2
		b.floats[i] = floatKeys[rng.Intn(len(floatKeys))]
		copy(b.chars[i*10+2:i*10+8], groupCharPool[rng.Intn(len(groupCharPool))])
		b.vals[i] = randF64(rng)
		if rng.Intn(2) == 0 {
			b.vals[i] = aggValPool[rng.Intn(len(aggValPool))]
		}
		b.ivals[i] = randI64(rng)
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

// valCol is the DOUBLE aggregate input lane as a column.
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

// groupTerms are the aggregate terms the group tests fold: every kind over
// the DOUBLE lane and over the BIGINT lane, and COUNT, then more MIN and
// MAX terms, so the flag bytes fill more than one word. Even terms fold
// through Col.Fold, odd ones through Compact and GroupTable.FoldVals.
var groupTerms = []struct {
	kind expr.AggKind
	ints bool
}{
	{expr.Sum, false}, {expr.Avg, false}, {expr.Min, false}, {expr.Max, false}, {expr.Count, false},
	{expr.Sum, true}, {expr.Avg, true}, {expr.Min, true}, {expr.Max, true},
	{expr.Max, false}, {expr.Min, true}, {expr.Min, false}, {expr.Max, true}, {expr.Max, false},
}

func groupKinds() []expr.AggKind {
	kinds := make([]expr.AggKind, len(groupTerms))
	for i, a := range groupTerms {
		kinds[i] = a.kind
	}
	return kinds
}

// fold folds every term of the batch's selected rows into g, their groups
// ids.
func (b *groupBatch) fold(g *GroupTable, ids []int32) {
	in := [2]Col{*b.valCol(), {Type: geometry.Int64, I64: b.ivals}}
	xs := make([]float64, len(b.sel))
	for term, a := range groupTerms {
		c := &in[0]
		if a.ints {
			c = &in[1]
		}
		switch {
		case a.kind == expr.Count:
		case term%2 == 0:
			c.Fold(g, term, ids, b.sel)
		default:
			c.Compact(xs, b.sel)
			g.FoldVals(term, ids, xs)
		}
	}
}

// add folds row r into a group's reference states, one per term, with
// AggState.Add (AddCount for COUNT).
func (b *groupBatch) add(states []AggState, r int32) {
	for term, a := range groupTerms {
		switch {
		case a.kind == expr.Count:
			states[term].AddCount(1)
		case a.ints:
			states[term].Add(float64(b.ivals[r]))
		default:
			states[term].Add(b.vals[r])
		}
	}
}

// checkTerms holds every group's lanes to its reference states: State's
// Result and FinishAggCol's column equal AggState.Result, bit for bit, for
// every term, and the group's count equals the COUNT term's.
func checkTerms(t *testing.T, g *GroupTable, want [][]AggState, what string) {
	t.Helper()
	if g.Len() != len(want) {
		t.Fatalf("%s: %d groups, want %d", what, g.Len(), len(want))
	}
	var col Col
	for term, a := range groupTerms {
		g.FinishAggCol(&col, term)
		for gi, states := range want {
			w := states[term].Result(a.kind)
			if got := g.State(gi, term).Result(a.kind); !sameValue(got, w) {
				t.Fatalf("%s: group %d %s term %d: State %v (%#x), want %v (%#x)", what, gi, a.kind, term,
					got, math.Float64bits(got.Float), w, math.Float64bits(w.Float))
			}
			if got := colValue(&col, int32(gi)); !sameValue(got, w) {
				t.Fatalf("%s: group %d %s term %d: FinishAggCol %v (%#x), want %v (%#x)", what, gi, a.kind, term,
					got, math.Float64bits(got.Float), w, math.Float64bits(w.Float))
			}
			if a.kind == expr.Count && g.Count(gi) != w.Int {
				t.Fatalf("%s: group %d count %d, want %d", what, gi, g.Count(gi), w.Int)
			}
		}
	}
}

// corners counts the reference groups whose DOUBLE MIN saw a NaN first,
// and those that saw a NaN after a number, so a test can require both.
func corners(want [][]AggState, nanAfter map[int]bool) (first, after int) {
	for gi, states := range want {
		if states[2].flags&extNaNFirst != 0 {
			first++
		}
		if nanAfter[gi] {
			after++
		}
	}
	return first, after
}

// TestGroupTableMatchesSequentialFold checks the hash-group kernel against a
// row-at-a-time reference over several batches: a map from the encoded key
// to a group id and one AggState per term folded with AggState.Add. Groups,
// their first-seen order and counts match, and every term of every kind,
// over DOUBLE and BIGINT lanes, finalizes bit for bit as the reference.
func TestGroupTableMatchesSequentialFold(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	refs := map[string]int{}
	var order []string
	var want [][]AggState
	nanAfter := map[int]bool{}
	var g GroupTable
	g.Reset(groupKinds(), groupKeyCols)
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
		b.fold(&g, ids)

		for j, r := range b.sel {
			k := b.encode(r)
			id, ok := refs[k]
			if !ok {
				id = len(order)
				refs[k] = id
				order = append(order, k)
				want = append(want, make([]AggState, len(groupTerms)))
			}
			if ids[j] != int32(id) {
				t.Fatalf("batch %d row %d: group id %d, want %d", batch, r, ids[j], id)
			}
			if x := b.vals[r]; x != x && want[id][2].flags&extAny != 0 {
				nanAfter[id] = true
			}
			b.add(want[id], r)
		}
	}
	for gi, k := range order {
		if string(g.Key(gi)) != k {
			t.Fatalf("group %d: key %q, want %q", gi, g.Key(gi), k)
		}
	}
	checkTerms(t, &g, want, "sequential")
	if first, after := corners(want, nanAfter); first == 0 || after == 0 {
		t.Fatalf("lanes miss a corner: %d groups with a NaN first, %d with a NaN after a number", first, after)
	}
	// -0/+0 and the two NaN payloads are distinct float keys.
	var floats GroupTable
	floats.Reset(nil, []geometry.Column{{Type: geometry.Float64}})
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
	g.Reset([]expr.AggKind{expr.Sum, expr.Max}, groupKeyCols)
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

// TestGroupTableStateBytesPerGroup: folding 9,000 groups of {SUM, COUNT}
// into a fresh table allocates at most 64 bytes of aggregate state per
// group, counted as the bytes it allocates beyond the same fold with no
// aggregate terms (whose keys, index and counts are the same). A SUM keeps
// one float64 and a COUNT nothing beyond the group's count, so lanes that
// grow by appending stay under 64; two 40-byte AggStates do not.
func TestGroupTableStateBytesPerGroup(t *testing.T) {
	const groups, rows = 9000, 4 * 9000
	keys := Col{Type: geometry.Int64, I64: make([]int64, rows)}
	vals := Col{Type: geometry.Float64, F64: make([]float64, rows)}
	for i := range keys.I64 {
		keys.I64[i], vals.F64[i] = int64(i*7919%groups), float64(i%97)
	}
	ids := make([]int32, BatchRows)
	fold := func(kinds []expr.AggKind) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		g := new(GroupTable)
		g.Reset(kinds, []geometry.Column{{Type: geometry.Int64, Width: 8}})
		for start := 0; start < rows; start += BatchRows {
			sel := identity[:min(BatchRows, rows-start)]
			batch := []Col{{Type: geometry.Int64, I64: keys.I64[start:]}}
			g.Assign(ids[:len(sel)], batch, sel)
			if len(kinds) > 0 {
				(&Col{Type: geometry.Float64, F64: vals.F64[start:]}).Fold(g, 0, ids[:len(sel)], sel)
			}
		}
		runtime.ReadMemStats(&m1)
		if g.Len() != groups {
			t.Fatalf("%d groups, want %d", g.Len(), groups)
		}
		return m1.TotalAlloc - m0.TotalAlloc
	}
	fold(nil) // first use of the runtime's size classes
	bare, agg := fold(nil), fold([]expr.AggKind{expr.Sum, expr.Count})
	perGroup := float64(int64(agg)-int64(bare)) / groups
	t.Logf("%d bytes without terms, %d with {SUM, COUNT}: %.1f bytes of state per group", bare, agg, perGroup)
	if perGroup > 64 {
		t.Errorf("{SUM, COUNT} state allocates %.1f bytes per group, want at most 64", perGroup)
	}
}

// BenchmarkGroupFold folds 36,864 rows over 9,000 BIGINT groups into a
// fresh table per operation, as a statement does: {SUM, COUNT} and
// {MIN, MAX} over a DOUBLE lane. Run with -benchmem: bytes per operation
// are the key index plus the terms' state lanes.
func BenchmarkGroupFold(b *testing.B) {
	const groups, rows = 9000, 36 * BatchRows
	rng := rand.New(rand.NewSource(9))
	keys, vals := make([]int64, rows), make([]float64, rows)
	for i := range keys {
		keys[i], vals[i] = int64(rng.Intn(groups)), rng.NormFloat64()
	}
	ids := make([]int32, BatchRows)
	for _, bc := range []struct {
		name  string
		kinds []expr.AggKind
	}{
		{"sum-count", []expr.AggKind{expr.Sum, expr.Count}},
		{"min-max", []expr.AggKind{expr.Min, expr.Max}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := new(GroupTable)
				g.Reset(bc.kinds, []geometry.Column{{Type: geometry.Int64, Width: 8}})
				for start := 0; start < rows; start += BatchRows {
					g.Assign(ids, []Col{{Type: geometry.Int64, I64: keys[start:]}}, identity)
					val := Col{Type: geometry.Float64, F64: vals[start:]}
					for term := range bc.kinds {
						val.Fold(g, term, ids, identity)
					}
				}
			}
		})
	}
}

// TestAggStateMergeMatchesSequentialFold splits random sequences, heavy in
// NaN, -0 and +0, at random points (empty parts included), folds each part
// into its own state and merges the states in order: Count, Min, Max and the
// flags equal one sequential fold of the whole sequence, and so does
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
		if merged.Count != seq.Count || merged.flags != seq.flags ||
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
// and, split at random batches, into up to four partition tables merged in
// partition order. The merged table has the whole table's groups in the
// same first-seen order and counts, and every term of every kind, over
// DOUBLE and BIGINT lanes, finalizes bit for bit as the reference: per
// partition one AggState per group and term folded with AggState.Add, the
// partitions' states merged in order with AggState.Merge.
func TestGroupTableMergeMatchesOneTable(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		batches := make([]*groupBatch, 1+rng.Intn(6))
		for i := range batches {
			batches[i] = newGroupBatch(rng, 1+rng.Intn(300))
		}
		nParts := 1 + rng.Intn(4)
		cuts := make([]int, len(batches))
		for i := range cuts {
			cuts[i] = rng.Intn(nParts)
		}
		slices.Sort(cuts) // batch i goes to partition cuts[i]; some may be empty
		var whole, merged GroupTable
		parts := make([]*GroupTable, nParts)
		partRefs := make([]map[string][]AggState, nParts)
		whole.Reset(groupKinds(), groupKeyCols)
		merged.Reset(groupKinds(), nil)
		for p := range parts {
			parts[p] = new(GroupTable)
			parts[p].Reset(groupKinds(), groupKeyCols)
			partRefs[p] = map[string][]AggState{}
		}
		for i, b := range batches {
			p := cuts[i]
			for _, g := range []*GroupTable{&whole, parts[p]} {
				ids := make([]int32, len(b.sel))
				g.Assign(ids, b.keys(), b.sel)
				b.fold(g, ids)
			}
			for _, r := range b.sel {
				k := b.encode(r)
				if partRefs[p][k] == nil {
					partRefs[p][k] = make([]AggState, len(groupTerms))
				}
				b.add(partRefs[p][k], r)
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
		want := make([][]AggState, whole.Len())
		for gi := range want {
			k := string(whole.Key(gi))
			if string(merged.Key(gi)) != k || merged.Count(gi) != whole.Count(gi) {
				t.Fatalf("trial %d group %d: %q count %d, want %q %d", trial, gi,
					merged.Key(gi), merged.Count(gi), k, whole.Count(gi))
			}
			want[gi] = make([]AggState, len(groupTerms))
			for p := range parts {
				for term, st := range partRefs[p][k] {
					want[gi][term].Merge(st)
				}
			}
		}
		checkTerms(t, &merged, want, fmt.Sprintf("trial %d merged", trial))
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
		g.Reset(nil, cols)
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
		g.Reset(nil, cols)
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
	g.Reset(nil, []geometry.Column{{Type: geometry.Int64}})
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
