package rfabric

import (
	"fmt"
	"sync"
	"testing"

	"rfabric/internal/plan"
)

// TestGroupCacheWarmMatchesCold pins the cache's core contract: with the
// group cache on, repeating an RM query replays the resident group — the
// logical result is byte-identical to the cold run, the modeled cycles are
// strictly cheaper, and the counters account for every lookup.
func TestGroupCacheWarmMatchesCold(t *testing.T) {
	db := demoDB(t, 4000)
	db.SetGroupCache(DefaultGroupCacheConfig())
	const q = "SELECT id, price FROM items WHERE grp < 4"

	db.System().ResetState()
	cold, err := db.QueryOn(RM, q)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheWarm {
		t.Fatal("first run claimed a warm group")
	}
	db.System().ResetState()
	warm, err := db.QueryOn(RM, q)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheWarm {
		t.Fatal("second run did not replay the cached group")
	}
	if err := warm.EquivalentTo(cold, 0); err != nil {
		t.Fatalf("warm result diverged: %v", err)
	}
	if warm.RowsScanned != cold.RowsScanned || warm.Checksum != cold.Checksum {
		t.Fatalf("warm scan not byte-identical: scanned %d vs %d, checksum %#x vs %#x",
			warm.RowsScanned, cold.RowsScanned, warm.Checksum, cold.Checksum)
	}
	if warm.Breakdown.TotalCycles >= cold.Breakdown.TotalCycles {
		t.Fatalf("warm run (%d cycles) not cheaper than cold (%d)",
			warm.Breakdown.TotalCycles, cold.Breakdown.TotalCycles)
	}
	st := db.GroupCacheStats()
	if st.Hits != 1 || st.Misses != 1 || st.Installs != 1 || st.Entries == 0 {
		t.Fatalf("group cache stats: %+v", st)
	}

	// Off by default: a fresh DB never touches the cache.
	fresh := demoDB(t, 100)
	if _, err := fresh.QueryOn(RM, q); err != nil {
		t.Fatal(err)
	}
	if st := fresh.GroupCacheStats(); st.Hits != 0 && st.Misses != 0 {
		t.Fatalf("cache active without SetGroupCache: %+v", st)
	}
}

// TestGroupCacheInvalidatedByInsert pins the write path: an Insert through
// the façade bumps the table's epoch, so the next query re-records instead
// of serving the stale group — and sees the new row.
func TestGroupCacheInvalidatedByInsert(t *testing.T) {
	db := demoDB(t, 1000)
	db.SetGroupCache(DefaultGroupCacheConfig())
	const q = "SELECT id, price FROM items WHERE grp < 10"

	warmup := func() *Result {
		t.Helper()
		db.System().ResetState()
		res, err := db.QueryOn(RM, q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	warmup()
	before := warmup()
	if !before.CacheWarm {
		t.Fatal("cache never warmed up")
	}
	if err := db.Insert("items", I64(10_000), I32(1), F64(1.0), Str("red"), DateV(8000)); err != nil {
		t.Fatal(err)
	}
	after := warmup()
	if after.CacheWarm {
		t.Fatal("stale group served after Insert")
	}
	if after.RowsScanned != before.RowsScanned+1 {
		t.Fatalf("post-insert scan saw %d rows, want %d", after.RowsScanned, before.RowsScanned+1)
	}
	if st := db.GroupCacheStats(); st.Invalidations == 0 {
		t.Fatalf("no invalidation counted: %+v", st)
	}
	if res := warmup(); !res.CacheWarm || res.RowsScanned != after.RowsScanned {
		t.Fatalf("re-recorded group wrong: warm=%v scanned=%d", res.CacheWarm, res.RowsScanned)
	}
}

// TestColumnarCopyInvalidatedByWrite is the regression test for the lazily
// built colstore: it used to be built once and never refreshed, so COL
// queries after a write returned stale data.
func TestColumnarCopyInvalidatedByWrite(t *testing.T) {
	db := demoDB(t, 500)
	const q = "SELECT id, price FROM items WHERE grp < 10"
	before, err := db.QueryOn(COL, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("items", I64(10_000), I32(1), F64(1.0), Str("red"), DateV(8000)); err != nil {
		t.Fatal(err)
	}
	after, err := db.QueryOn(COL, q)
	if err != nil {
		t.Fatal(err)
	}
	if after.RowsScanned != before.RowsScanned+1 {
		t.Fatalf("COL scan after Insert saw %d rows, want %d — stale columnar copy",
			after.RowsScanned, before.RowsScanned+1)
	}
	if after.RowsPassed != before.RowsPassed+1 {
		t.Fatalf("COL pass count after Insert: %d, want %d", after.RowsPassed, before.RowsPassed+1)
	}
	// Unchanged table: the copy is reused, not rebuilt (same result).
	again, err := db.QueryOn(COL, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := again.EquivalentTo(after, 0); err != nil {
		t.Fatalf("repeat COL scan diverged: %v", err)
	}
}

// TestPlanCacheInvalidatedByDDLAndWrites pins the plan cache's epoch check:
// DDL and writes bump the catalog epoch, so a Prepare after either
// recompiles instead of serving the stale fragment.
func TestPlanCacheInvalidatedByDDLAndWrites(t *testing.T) {
	db := demoDB(t, 200)
	const q = "SELECT id FROM items WHERE grp = 1"

	p1, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	sch, _ := NewSchema(Column{Name: "x", Type: Int64, Width: 8})
	if _, err := db.CreateTable("side", sch, 16); err != nil {
		t.Fatal(err)
	}
	p2, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatal("stale fragment served across DDL")
	}
	st := db.PlanCache()
	if st.Invalidations != 1 || st.Misses != 2 {
		t.Fatalf("after DDL: %+v", st)
	}

	if err := db.Insert("side", I64(1)); err != nil {
		t.Fatal(err)
	}
	p3, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p2 {
		t.Fatal("stale fragment served across a write")
	}
	if st := db.PlanCache(); st.Invalidations != 2 {
		t.Fatalf("after write: %+v", st)
	}

	// No epoch movement: the fragment is reused.
	p4, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if p4 != p3 {
		t.Fatal("fresh fragment not reused")
	}
}

// TestPlanCacheConcurrentPrepareDDL stresses the plan cache and the group
// cache's epoch machinery under the race detector: one goroutine runs
// queries (the shared System is single-goroutine), while others churn DDL,
// writes, Prepare, and stats reads.
func TestPlanCacheConcurrentPrepareDDL(t *testing.T) {
	db := demoDB(t, 500)
	db.SetGroupCache(DefaultGroupCacheConfig())
	const q = "SELECT id, price FROM items WHERE grp < 5"

	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if _, err := db.QueryOn(RM, q); err != nil {
				t.Errorf("query: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		sch, _ := NewSchema(Column{Name: "x", Type: Int64, Width: 8})
		for i := 0; i < 50; i++ {
			name := fmt.Sprintf("side%02d", i)
			if _, err := db.CreateTable(name, sch, 16); err != nil {
				t.Errorf("ddl: %v", err)
				return
			}
			if err := db.Insert(name, I64(int64(i))); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			if i < 16 { // demoDB reserves 16 spare rows
				if err := db.Insert("items", I64(int64(100_000+i)), I32(3), F64(2.5), Str("blue"), DateV(8001)); err != nil {
					t.Errorf("insert items: %v", err)
					return
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if _, err := db.Prepare(q); err != nil {
				t.Errorf("prepare: %v", err)
				return
			}
			db.PlanCache()
			db.GroupCacheStats()
		}
	}()
	wg.Wait()

	// The final query must see every concurrent insert into items.
	res, err := db.QueryOn(RM, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsScanned != 516 {
		t.Fatalf("final scan saw %d rows, want 516", res.RowsScanned)
	}
}

// TestFeedbackEvictsMispricedPlan pins that a run's pricing error never
// drops a prepared fragment: the fragment holds no plan (AUTO re-prices on
// every run), so a run whose estimate misses its cycles — RM's price scales
// a run over the first 1,024 rows to all 2,000 — leaves the fragment
// resident, and the next Prepare returns the same one.
func TestFeedbackEvictsMispricedPlan(t *testing.T) {
	db := demoDB(t, 2000)
	db.SetStatements(NewStatStore())
	db.SetGroupCache(DefaultGroupCacheConfig())
	const q = "SELECT id, price FROM items WHERE grp < 1"

	p, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(RM)
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.compile(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	est := db.estimateObserved(s.t, s.q, "RM", false, false)
	if est == nil || est.Cycles == float64(res.Breakdown.TotalCycles) {
		t.Fatalf("run not mispriced: estimate %+v against %d cycles", est, res.Breakdown.TotalCycles)
	}
	if st := db.PlanCache(); st.Resident != 1 {
		t.Fatalf("mispriced run dropped its fragment: %+v", st)
	}
	p2, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p {
		t.Fatal("Prepare recompiled a resident fragment")
	}
}

// TestFeedbackRechoosesPlan: an index whose keys are skewed — every row but
// one has val = 0, and the last stretches the key span to 1e6 — makes
// `val <= 1000` pass nearly every row. The index path counts its own key
// range, so AUTO prices that exactly and avoids IDX from the first run,
// with the group cache on or off.
func TestFeedbackRechoosesPlan(t *testing.T) {
	for _, cached := range []bool{false, true} {
		db, err := Open(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		sch, err := NewSchema(
			Column{Name: "id", Type: Int64, Width: 8},
			Column{Name: "val", Type: Int64, Width: 8},
			Column{Name: "price", Type: Float64, Width: 8},
		)
		if err != nil {
			t.Fatal(err)
		}
		const rows = 4000
		if _, err := db.CreateTable("skew", sch, rows); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			val := int64(0)
			if i == rows-1 {
				val = 1_000_000
			}
			if err := db.Insert("skew", I64(int64(i)), I64(val), F64(float64(i))); err != nil {
				t.Fatal(err)
			}
		}
		db.SetStatements(NewStatStore())
		if cached {
			db.SetGroupCache(DefaultGroupCacheConfig())
		}
		if _, err := db.CreateIndex("skew", "val"); err != nil {
			t.Fatal(err)
		}
		const q = "SELECT id, price FROM skew WHERE val <= 1000"

		var first *Result
		for run := 0; run < 2; run++ {
			res, err := db.QueryOn(AUTO, q)
			if err != nil {
				t.Fatal(err)
			}
			if res.Engine == "IDX" {
				t.Fatalf("cache=%v run %d: AUTO chose IDX for a predicate passing %d of %d rows",
					cached, run, res.RowsPassed, rows)
			}
			if first == nil {
				first = res
			} else if err := res.EquivalentTo(first, 0); err != nil {
				t.Fatalf("cache=%v: rerun diverged: %v", cached, err)
			}
		}
	}
}

// TestAutoKeepsIndexUnderGroupCache: with the group cache on and a
// statement store attached, repeated AUTO q6 runs, each from a cold
// machine, stay on the index path at one cost — no selectivity observed on
// another basis (passed over candidates) re-prices the index away.
func TestAutoKeepsIndexUnderGroupCache(t *testing.T) {
	db, err := NewTPCHDB(DefaultConfig(), 24000, 1)
	if err != nil {
		t.Fatal(err)
	}
	db.SetStatements(NewStatStore())
	db.SetGroupCache(DefaultGroupCacheConfig())
	var q6 string
	for _, st := range DefaultAuditSet() {
		if st.Name == "q6" {
			q6 = st.SQL
		}
	}
	var cycles uint64
	for run := 0; run < 4; run++ {
		db.sys.ResetState()
		res, err := db.QueryOn(AUTO, q6)
		if err != nil {
			t.Fatal(err)
		}
		if res.Engine != "IDX" {
			t.Fatalf("run %d: AUTO chose %s at %d cycles, want IDX", run, res.Engine, res.Breakdown.TotalCycles)
		}
		if run > 0 && res.Breakdown.TotalCycles != cycles {
			t.Fatalf("run %d: %d cycles, first run %d", run, res.Breakdown.TotalCycles, cycles)
		}
		cycles = res.Breakdown.TotalCycles
	}
}

// TestWarmEstimateUsesRMCacheKey: with offload on, RM pushes the selection
// into the fabric and keys the resident group on the pushed predicates.
// The optimizer's warm probe must look the group up under that same key, so
// a warm rerun is priced warm and close to what it measured.
func TestWarmEstimateUsesRMCacheKey(t *testing.T) {
	db := demoDB(t, 4000)
	db.SetGroupCache(DefaultGroupCacheConfig())
	db.SetOffload(true)
	const q = "SELECT id, price FROM items WHERE grp < 4"
	if _, err := db.QueryOn(RM, q); err != nil {
		t.Fatal(err)
	}
	warm, err := db.QueryOn(RM, q)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheWarm {
		t.Fatal("second run did not replay the resident group")
	}
	s, err := db.compile(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	est := db.estimateObserved(s.t, s.q, "RM", true, true)
	if est == nil {
		t.Fatal("RM not priced")
	}
	qe := plan.QError(est.Cycles, float64(warm.Breakdown.TotalCycles))
	if !est.Warm || qe > 1.5 {
		t.Errorf("warm rerun priced warm=%v at %.0f cycles against %d measured (q-error %.2f), want warm within 1.5x",
			est.Warm, est.Cycles, warm.Breakdown.TotalCycles, qe)
	}
}
