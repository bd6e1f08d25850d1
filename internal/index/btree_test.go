package index

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"rfabric/internal/cache"
	"rfabric/internal/dram"
	"rfabric/internal/geometry"
	"rfabric/internal/table"
)

func buildFixture(t *testing.T, keys []int64) (*BTree, *table.Table, *cache.Hierarchy) {
	t.Helper()
	sch := geometry.MustSchema(
		geometry.Column{Name: "k", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "v", Type: geometry.Int32, Width: 4},
	)
	arena := dram.MustArena(0, 64)
	tbl := table.MustNew("t", sch, table.WithCapacity(len(keys)),
		table.WithBaseAddr(arena.Alloc(int64(len(keys)*sch.RowBytes()))))
	for i, k := range keys {
		tbl.MustAppend(0, table.I64(k), table.I32(int32(i)))
	}
	idx, err := Build(tbl, 0, arena)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	mem := dram.MustNew(dram.DefaultConfig())
	h := cache.MustHierarchy(cache.DefaultHierarchy(), mem)
	return idx, tbl, h
}

func TestLookupFindsAllDuplicates(t *testing.T) {
	keys := make([]int64, 1000)
	for i := range keys {
		keys[i] = int64(i % 100) // ten duplicates per key
	}
	idx, _, h := buildFixture(t, keys)
	if err := idx.Validate(); err != nil {
		t.Fatal(err)
	}
	rows := idx.Lookup(h, 42)
	if len(rows) != 10 {
		t.Fatalf("Lookup(42) = %d rows, want 10", len(rows))
	}
	for _, r := range rows {
		if keys[r] != 42 {
			t.Errorf("row %d has key %d", r, keys[r])
		}
	}
	if got := idx.Lookup(h, 1000); got != nil {
		t.Errorf("Lookup of absent key = %v", got)
	}
}

func TestRangeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	keys := make([]int64, 5000)
	for i := range keys {
		keys[i] = int64(rng.Intn(2000))
	}
	idx, _, h := buildFixture(t, keys)
	lo, hi := int64(500), int64(800)
	got := idx.Range(h, lo, hi)
	var want []int32
	for r, k := range keys {
		if k >= lo && k <= hi {
			want = append(want, int32(r))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("Range = %d rows, want %d", len(got), len(want))
	}
	if cap(got) != len(got) {
		t.Errorf("Range allocated %d slots for %d rows", cap(got), len(got))
	}
	// Range returns key order; compare as sets.
	slices.Sort(got)
	slices.Sort(want)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Range row set differs at %d: %d vs %d", i, got[i], want[i])
		}
	}
	if idx.Range(h, 10, 5) != nil {
		t.Error("inverted range returned rows")
	}
}

func TestPointLookupIsCheaperThanScan(t *testing.T) {
	keys := make([]int64, 100_000)
	for i := range keys {
		keys[i] = int64(i)
	}
	idx, tbl, h := buildFixture(t, keys)
	h.Reset()
	idx.Lookup(h, 77_777)
	lookupLoads := h.Stats().Loads
	// An index point lookup touches height * ~3 lines; a scan touches every
	// row. The gap is the paper's residual-role-for-indexes claim (§III-A).
	if lookupLoads > uint64(idx.Height()*4) {
		t.Errorf("lookup issued %d loads for height %d", lookupLoads, idx.Height())
	}
	if lookupLoads*100 > uint64(tbl.NumRows()) {
		t.Errorf("lookup cost (%d loads) not clearly below scan cost (%d rows)", lookupLoads, tbl.NumRows())
	}
}

func TestInsertKeepsInvariants(t *testing.T) {
	idx, _, h := buildFixture(t, []int64{10, 20, 30})
	rng := rand.New(rand.NewSource(11))
	inserted := map[int64]int{10: 1, 20: 1, 30: 1}
	for i := 0; i < 5000; i++ {
		k := int64(rng.Intn(1000))
		idx.Insert(h, k, 3+i)
		inserted[k]++
	}
	if err := idx.Validate(); err != nil {
		t.Fatalf("after inserts: %v", err)
	}
	// Spot-check a few keys.
	for _, k := range []int64{0, 10, 500, 999} {
		got := len(idx.Lookup(h, k))
		if got != inserted[k] {
			t.Errorf("Lookup(%d) = %d rows, want %d", k, got, inserted[k])
		}
	}
	if idx.Height() < 2 {
		t.Errorf("tree never split: height %d", idx.Height())
	}
}

func TestBuildValidation(t *testing.T) {
	sch := geometry.MustSchema(
		geometry.Column{Name: "k", Type: geometry.Char, Width: 4},
	)
	tbl := table.MustNew("t", sch)
	arena := dram.MustArena(0, 64)
	if _, err := Build(tbl, 0, arena); err == nil {
		t.Error("CHAR column accepted as index key")
	}
	if _, err := Build(tbl, 7, arena); err == nil {
		t.Error("out-of-range column accepted")
	}
	if _, err := Build(nil, 0, arena); err == nil {
		t.Error("nil table accepted")
	}
	// Empty table builds an empty, valid tree.
	sch2 := geometry.MustSchema(geometry.Column{Name: "k", Type: geometry.Int64, Width: 8})
	empty := table.MustNew("e", sch2)
	idx, err := Build(empty, 0, arena)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := idx.Lookup(nil, 5); got != nil {
		t.Errorf("empty tree lookup = %v", got)
	}
}

// TestLookupRangeProperty: for random key multisets, Lookup and Range agree
// with a linear scan, before and after random inserts.
func TestLookupRangeProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(500) + 1
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(rng.Intn(200) - 100)
		}
		sch := geometry.MustSchema(geometry.Column{Name: "k", Type: geometry.Int64, Width: 8})
		arena := dram.MustArena(0, 64)
		tbl := table.MustNew("t", sch, table.WithCapacity(n))
		for _, k := range keys {
			tbl.MustAppend(0, table.I64(k))
		}
		idx, err := Build(tbl, 0, arena)
		if err != nil {
			return false
		}
		// Random inserts on top of the bulk load.
		extra := rng.Intn(200)
		for i := 0; i < extra; i++ {
			k := int64(rng.Intn(200) - 100)
			idx.Insert(nil, k, n+i)
			keys = append(keys, k)
		}
		if idx.Validate() != nil {
			return false
		}
		probe := int64(rng.Intn(200) - 100)
		want := 0
		for _, k := range keys {
			if k == probe {
				want++
			}
		}
		if len(idx.Lookup(nil, probe)) != want {
			return false
		}
		lo := int64(rng.Intn(200) - 100)
		hi := lo + int64(rng.Intn(50))
		wantRange := 0
		for _, k := range keys {
			if k >= lo && k <= hi {
				wantRange++
			}
		}
		return len(idx.Range(nil, lo, hi)) == wantRange
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
