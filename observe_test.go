package rfabric

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rfabric/internal/obs"
	"rfabric/internal/tpch"
)

// lineitemDB builds a TPC-H lineitem table at a small scale.
func lineitemDB(t *testing.T, rows int) *DB {
	t.Helper()
	db, err := Open(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("lineitem", tpch.LineitemSchema(), rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := tpch.Generate(tbl, rows, 1); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestTracedQ6Reconciles is the issue's acceptance check: a traced TPC-H Q6
// run on RM produces a span tree whose attributed cycles reconcile exactly
// with Breakdown.TotalCycles, with the pipeline and stall leaves in place.
func TestTracedQ6Reconciles(t *testing.T) {
	db := lineitemDB(t, 20_000)
	res, trace, err := db.ExecuteTraced(RM, "lineitem", q6(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Breakdown.TotalCycles == 0 {
		t.Fatal("Q6 reported zero modeled cycles")
	}
	if got := trace.Root.AttributedCycles(); got != res.Breakdown.TotalCycles {
		t.Fatalf("span tree attributes %d cycles, Breakdown.TotalCycles is %d",
			got, res.Breakdown.TotalCycles)
	}
	if trace.TotalCycles != res.Breakdown.TotalCycles {
		t.Fatalf("trace total %d != breakdown total %d", trace.TotalCycles, res.Breakdown.TotalCycles)
	}
	exec := trace.Root.Find("RM.execute")
	if exec == nil {
		t.Fatal("trace has no RM.execute span")
	}
	if _, ok := exec.Attr("cache_miss_ratio"); !ok {
		t.Error("RM.execute span lacks cache_miss_ratio annotation")
	}
	if _, ok := exec.Attr("row_buffer_hit_rate"); !ok {
		t.Error("RM.execute span lacks row_buffer_hit_rate annotation")
	}
	var sb strings.Builder
	trace.Render(&sb)
	rendered := sb.String()
	for _, want := range []string{"RM.execute", "fabric.configure", "total_cycles="} {
		if !strings.Contains(rendered, want) {
			t.Errorf("rendered trace lacks %q:\n%s", want, rendered)
		}
	}
	if db.LastTrace() != trace {
		t.Error("LastTrace does not hold the traced query")
	}
}

// TestQueryTracedParsePlanSpans checks the SQL entry point emits the parse
// and plan spans and threads the statement text through the trace.
func TestQueryTracedParsePlanSpans(t *testing.T) {
	db := lineitemDB(t, 2_000)
	sql := "SELECT SUM(l_extendedprice * l_discount) FROM lineitem WHERE l_quantity < 24"
	res, trace, err := db.QueryTraced(sql)
	if err != nil {
		t.Fatal(err)
	}
	if trace.Query != sql {
		t.Errorf("trace query = %q, want the statement text", trace.Query)
	}
	for _, name := range []string{"parse", "plan.logical", "RM.execute"} {
		if trace.Root.Find(name) == nil {
			t.Errorf("trace lacks %q span", name)
		}
	}
	if got := trace.Root.AttributedCycles(); got != res.Breakdown.TotalCycles {
		t.Errorf("span tree attributes %d cycles, breakdown says %d", got, res.Breakdown.TotalCycles)
	}
}

// TestTracedOperatorTreeAndSinks pins the EXPLAIN surface of the plan IR: a
// traced query carries the physical operator chain as one span per operator
// (with the priced access path stamped on the Scan), the ORDER BY / LIMIT
// sinks run after the pipeline with their modeled sort cycles attributed to
// a sink span, and the root still reconciles with the breakdown.
func TestTracedOperatorTreeAndSinks(t *testing.T) {
	db := lineitemDB(t, 5_000)
	stmt := "SELECT l_returnflag, COUNT(*), SUM(l_quantity) FROM lineitem " +
		"WHERE l_quantity < 30 GROUP BY l_returnflag ORDER BY 3 DESC LIMIT 2"
	res, trace, err := db.QueryTraced(stmt)
	if err != nil {
		t.Fatal(err)
	}
	phys := trace.Root.Find("plan.physical")
	if phys == nil {
		t.Fatal("trace lacks plan.physical span")
	}
	for _, op := range []string{"op.limit", "op.orderby", "op.aggregate", "op.filter", "op.scan"} {
		sp := phys.Find(op)
		if sp == nil {
			t.Fatalf("operator tree lacks %s span", op)
		}
		if _, ok := sp.Attr("expr"); !ok {
			t.Errorf("%s span lacks its EXPLAIN line", op)
		}
	}
	if src, _ := phys.Find("op.scan").Attr("source"); src != res.Engine {
		t.Errorf("scan span source = %q, run used %q", src, res.Engine)
	}
	sink := trace.Root.Find("sink")
	if sink == nil {
		t.Fatal("trace lacks sink span")
	}
	if sink.Cycles == 0 {
		t.Error("sort sink attributed no cycles")
	}
	if lim, _ := sink.Attr("limit"); lim != "2" {
		t.Errorf("sink limit attr = %q", lim)
	}
	if got := trace.Root.AttributedCycles(); got != res.Breakdown.TotalCycles {
		t.Errorf("span tree attributes %d cycles, breakdown says %d", got, res.Breakdown.TotalCycles)
	}
	if len(res.Groups) != 2 {
		t.Fatalf("LIMIT 2 returned %d groups", len(res.Groups))
	}
	if res.Groups[0].Aggs[1].Float < res.Groups[1].Aggs[1].Float {
		t.Errorf("groups not sorted descending: %v then %v", res.Groups[0].Aggs[1], res.Groups[1].Aggs[1])
	}
}

// TestDBExplain checks the EXPLAIN-without-ANALYZE entry point renders the
// lowered operator chain.
func TestDBExplain(t *testing.T) {
	db := lineitemDB(t, 100)
	out, err := db.Explain("SELECT l_returnflag, COUNT(*) FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Limit[3]", "OrderBy[l_returnflag]", "Aggregate[group=(l_returnflag)", "Scan[lineitem source=?"} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN output lacks %q:\n%s", want, out)
		}
	}
}

// TestObserverMetricsServe is the issue's live-export acceptance check:
// after one query through an observed DB, /metrics serves Prometheus text
// with dram, cache, and fabric series populated, and /debug/trace/last
// serves the trace.
func TestObserverMetricsServe(t *testing.T) {
	db := lineitemDB(t, 5_000)
	reg := NewRegistry()
	db.SetObserver(reg)

	_, trace, err := db.ExecuteTraced(RM, "lineitem", q6(t))
	if err != nil {
		t.Fatal(err)
	}
	var last obs.LastTrace
	last.Store(trace)

	srv := httptest.NewServer(obs.NewMux(reg, &last))
	defer srv.Close()

	body := get(t, srv.URL+"/metrics")
	for _, series := range []string{
		"rfabric_queries_total",
		"rfabric_query_cycles_total",
		"rfabric_dram_accesses_total",
		"rfabric_dram_bytes_read_total",
		"rfabric_cache_loads_total",
		"rfabric_fabric_bytes_shipped_total",
		`engine="RM"`,
		`table="lineitem"`,
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics lacks %s\ngot:\n%s", series, body)
		}
	}
	traceBody := get(t, srv.URL+"/debug/trace/last")
	if !strings.Contains(traceBody, "RM.execute") {
		t.Errorf("/debug/trace/last lacks the engine span:\n%s", traceBody)
	}
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSentinelErrors pins the errors.Is contracts of the DB façade.
func TestSentinelErrors(t *testing.T) {
	db, err := Open(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("SELECT x FROM ghost"); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("Query on missing table: got %v, want ErrNoSuchTable", err)
	}
	if _, err := db.Table("ghost"); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("Table lookup: got %v, want ErrNoSuchTable", err)
	}
	if err := db.Insert("ghost", I64(1)); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("Insert: got %v, want ErrNoSuchTable", err)
	}
	if _, err := db.CreateIndex("ghost", "x"); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("CreateIndex: got %v, want ErrNoSuchTable", err)
	}
	if _, err := db.Execute("BOGUS", "ghost", Query{}); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("Execute on missing table: got %v, want ErrNoSuchTable", err)
	}
	if _, _, err := db.QueryTraced("SELECT x FROM ghost"); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("QueryTraced: got %v, want ErrNoSuchTable", err)
	}

	schema, err := NewSchema(Column{Name: "x", Type: Int64, Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("t", schema, 4); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("t", I64(1)); err != nil {
		t.Fatal(err)
	}
	q := Query{Projection: []int{0}}
	if _, err := db.Execute("BOGUS", "t", q); !errors.Is(err, ErrUnknownEngine) {
		t.Errorf("Execute on bogus engine: got %v, want ErrUnknownEngine", err)
	}
	if _, err := db.Execute(RM, "t", q); err != nil {
		t.Errorf("Execute on RM: %v", err)
	}
}
