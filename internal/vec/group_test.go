package vec

import (
	"math"
	"math/rand"
	"testing"

	"rfabric/internal/expr"
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

func (b *groupBatch) keys() []KeyCol {
	return []KeyCol{
		{Kind: KeyInt, I64: b.ints},
		{Kind: KeyFloat, F64: b.floats},
		{Kind: KeyChar, Src: b.chars, Off: 2, Stride: 10, Width: 6},
	}
}

func (b *groupBatch) encode(r int32) string {
	k := AppendKeyI64(nil, b.ints[r])
	k = AppendKeyF64(k, b.floats[r])
	return string(AppendKeyChar(k, b.chars[int(r)*10+2:int(r)*10+8]))
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
	g.Reset(2)
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
		g.FoldF64(0, ids, b.vals, b.sel)
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
	floats.Reset(0)
	lane := []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000002), 0}
	ids := make([]int32, len(lane))
	floats.Assign(ids, []KeyCol{{Kind: KeyFloat, F64: lane}}, []int32{0, 1, 2, 3, 4})
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
	keys := b.keys()
	ids := make([]int32, len(b.sel))
	var g GroupTable
	g.Reset(2)
	g.Assign(ids, keys, b.sel)
	allocs := testing.AllocsPerRun(20, func() {
		g.Assign(ids, keys, b.sel)
		g.FoldF64(0, ids, b.vals, b.sel)
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
// and NaNFirst equal one sequential fold of the whole sequence, bit for
// bit, and Sum equals the in-order sum of the parts' sums (any NaN for a
// NaN: which payload a sum of two NaNs keeps depends on operand order the
// compiler picks). A NaN that leads a later part must not hide the
// numbers after it.
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
		var sums float64
		for p := 0; p+1 < len(cuts); p++ {
			var part AggState
			AddVals(&part, xs[cuts[p]:cuts[p+1]])
			if part.Count > 0 {
				sums += part.Sum
			}
			merged.Merge(part)
		}
		if merged.Count != seq.Count || merged.Any != seq.Any || merged.NaNFirst != seq.NaNFirst ||
			!same(merged.Min, seq.Min) || !same(merged.Max, seq.Max) ||
			!same(merged.Sum, sums) && !(math.IsNaN(merged.Sum) && math.IsNaN(sums)) {
			t.Fatalf("trial %d: %v split at %v merges to %+v, want %+v with sum %v", trial, xs, cuts, merged, seq, sums)
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
		whole.Reset(1)
		merged.Reset(1)
		for _, p := range parts {
			p.Reset(1)
		}
		for i, b := range batches {
			part := parts[0]
			if i >= split {
				part = parts[1]
			}
			for _, g := range []*GroupTable{&whole, part} {
				ids := make([]int32, len(b.sel))
				g.Assign(ids, b.keys(), b.sel)
				g.FoldF64(0, ids, b.vals, b.sel)
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
