package vec

import (
	"math"
	"math/rand"
	"testing"
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
