package rfabric

import (
	"sync"
	"testing"

	"rfabric/internal/obs"
	"rfabric/internal/tpch"
)

// DB-level tests of the sliding-window telemetry: the windows see exactly
// what the query path ran (successes, failures, modeled cycles, real
// wall-clock and allocation deltas).

// telemetryClock is the hand-advanced nanosecond clock the windows read in
// these tests.
type telemetryClock struct {
	mu sync.Mutex
	ns int64
}

func (c *telemetryClock) Now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ns
}

func (c *telemetryClock) AdvanceSec(s int64) {
	c.mu.Lock()
	c.ns += s * 1e9
	c.mu.Unlock()
}

func telemetryDB(t *testing.T, rows int) *DB {
	t.Helper()
	db, err := Open(DefaultConfig())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	tbl, err := db.CreateTable("lineitem", tpch.LineitemSchema(), rows)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := tpch.Generate(tbl, rows, 1); err != nil {
		t.Fatalf("generate: %v", err)
	}
	return db
}

func TestDBWindowsCaptureQueries(t *testing.T) {
	db := telemetryDB(t, 2000)
	clk := &telemetryClock{ns: 1000e9}
	win := obs.NewWindowsAt(60, clk.Now)
	db.SetWindows(win)
	if db.Windows() != win {
		t.Fatal("Windows accessor lost the aggregator")
	}

	res, err := db.Query("SELECT COUNT(*) FROM lineitem WHERE l_quantity < 25")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if _, err := db.QueryOn("BOGUS", tpch.Q6SQL); err == nil {
		t.Fatal("bogus engine kind succeeded")
	}

	snap := win.Snapshot(0)
	if snap.Queries != 2 || snap.Errors != 1 {
		t.Fatalf("queries/errors = %d/%d, want 2/1", snap.Queries, snap.Errors)
	}
	if snap.MeanCycles != float64(res.Breakdown.TotalCycles) {
		t.Fatalf("windowed mean cycles %g != the one success's %d", snap.MeanCycles, res.Breakdown.TotalCycles)
	}
	if snap.MeanWallNanos <= 0 {
		t.Fatalf("mean wall ns = %g, want > 0 (real clock captured)", snap.MeanWallNanos)
	}
	if snap.MeanAllocBytes <= 0 {
		t.Fatalf("mean alloc bytes = %g, want > 0 (a parsed query allocates)", snap.MeanAllocBytes)
	}
	if snap.DRAMBytesPerSec <= 0 {
		t.Fatalf("dram bytes/s = %g, want > 0", snap.DRAMBytesPerSec)
	}

	pts := win.Series(0)
	if len(pts) != 1 || pts[0].Queries != 2 || pts[0].Errors != 1 {
		t.Fatalf("series = %+v", pts)
	}
	// A small table can serve entirely from cache (zero DRAM fills), but the
	// hierarchy must have seen demand loads.
	if pts[0].CacheLoads == 0 {
		t.Fatal("windows recorded no cache loads")
	}
}

// TestDBWindowedQuantileMatchesHistogram is the DB-level half of the
// acceptance criterion: feed the same per-query modeled cycles the windows
// recorded into a registry Histogram and the windowed p99 must agree
// exactly — both sides share the bucket grid and the interpolation.
func TestDBWindowedQuantileMatchesHistogram(t *testing.T) {
	db := telemetryDB(t, 2000)
	clk := &telemetryClock{ns: 2000e9}
	win := obs.NewWindowsAt(60, clk.Now)
	db.SetWindows(win)

	reg := obs.NewRegistry()
	h := reg.Histogram("cmp_cycles", nil)
	queries := []string{
		"SELECT COUNT(*) FROM lineitem WHERE l_quantity < 40",
		"SELECT SUM(l_extendedprice) FROM lineitem WHERE l_quantity < 10",
		"SELECT l_orderkey, l_quantity FROM lineitem WHERE l_quantity < 2",
		"SELECT AVG(l_discount) FROM lineitem WHERE l_tax < 0.04",
	}
	for i, q := range queries {
		for _, kind := range []EngineKind{RM, ROW} {
			res, err := db.QueryOn(kind, q)
			if err != nil {
				t.Fatalf("%s on %s: %v", q, kind, err)
			}
			h.Observe(float64(res.Breakdown.TotalCycles))
		}
		if i%2 == 1 {
			clk.AdvanceSec(1)
		}
	}

	snap := win.Snapshot(0)
	if snap.Queries != uint64(2*len(queries)) {
		t.Fatalf("windows saw %d queries, want %d", snap.Queries, 2*len(queries))
	}
	for _, c := range []struct {
		name string
		q    float64
		got  float64
	}{
		{"p50", 0.50, snap.P50Cycles},
		{"p95", 0.95, snap.P95Cycles},
		{"p99", 0.99, snap.P99Cycles},
	} {
		if want := h.Quantile(c.q); c.got != want {
			t.Fatalf("windowed %s = %g, Histogram.Quantile = %g — must match exactly", c.name, c.got, want)
		}
	}
}

// TestDBWindowsJoinAndTracedPaths: the join entry point and the traced
// entry point feed the same windows, and traces carry the new wall/alloc
// fields.
func TestDBWindowsJoinAndTracedPaths(t *testing.T) {
	db := telemetryDB(t, 2000)
	clk := &telemetryClock{ns: 9000e9}
	win := obs.NewWindowsAt(60, clk.Now)
	db.SetWindows(win)

	orders, err := db.CreateTable("orders", tpch.OrdersSchema(), 500)
	if err != nil {
		t.Fatalf("orders: %v", err)
	}
	if err := tpch.GenerateOrders(orders, 500, 1); err != nil {
		t.Fatalf("generate orders: %v", err)
	}

	if _, err := db.Query(
		"SELECT COUNT(*) FROM lineitem JOIN orders ON l_orderkey = o_orderkey WHERE l_quantity < 30"); err != nil {
		t.Fatalf("join: %v", err)
	}
	if win.Snapshot(0).Queries != 1 {
		t.Fatal("join path did not reach the windows")
	}

	_, trace, err := db.QueryTraced("SELECT COUNT(*) FROM lineitem WHERE l_quantity < 25")
	if err != nil {
		t.Fatalf("traced: %v", err)
	}
	if trace.WallNanos <= 0 {
		t.Fatalf("trace wall ns = %d, want > 0", trace.WallNanos)
	}
	if trace.AllocBytes == 0 {
		t.Fatal("trace alloc bytes = 0, want > 0")
	}
	if win.Snapshot(0).Queries != 2 {
		t.Fatal("traced path did not reach the windows")
	}
}
