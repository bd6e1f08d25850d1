package rfabric

import (
	"strings"
	"testing"

	"rfabric/internal/obs"
	"rfabric/internal/tpch"
)

// Acceptance tests for the statement-statistics store and the
// estimated-vs-actual plan instrumentation: EXPLAIN ANALYZE's per-operator
// actual-row counts must reconcile with the Result the run returned, on
// every execution path, for single-table and multi-table statements alike.

// scanSpans collects every op.scan span in a trace, pre-order.
func scanSpans(s *obs.Span) []*obs.Span {
	var out []*obs.Span
	var walk func(*obs.Span)
	walk = func(s *obs.Span) {
		if s == nil {
			return
		}
		if s.Name == "op.scan" {
			out = append(out, s)
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(s)
	return out
}

func attrInt(t *testing.T, sp *obs.Span, key string) int64 {
	t.Helper()
	v, ok := sp.Attr(key)
	if !ok {
		t.Fatalf("span %s lacks attribute %q (attrs: %v)", sp.Name, key, sp.Attrs)
	}
	var n int64
	for _, c := range v {
		if c < '0' || c > '9' {
			t.Fatalf("span %s attr %s=%q is not an integer", sp.Name, key, v)
		}
		n = n*10 + int64(c-'0')
	}
	return n
}

// TestExplainAnalyzeActualsReconcile runs a filtered single-table statement
// as EXPLAIN ANALYZE on all six paths and checks the instrumentation
// contract: the Scan span's act_rows is exactly Result.RowsScanned, the
// Filter span's act_rows is exactly Result.RowsPassed, and the pricing block
// (est_rows/est_cycles/q_error) is present.
func TestExplainAnalyzeActualsReconcile(t *testing.T) {
	db := tpchDB(t, 3000)
	const q = `SELECT l_orderkey, l_quantity FROM lineitem WHERE l_shipdate < DATE '1995-06-17'`
	for _, kind := range joinEngineKinds {
		res, trace, err := db.QueryTraced(q, OnEngine(kind))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		scans := scanSpans(trace.Root)
		if len(scans) != 1 {
			t.Fatalf("%s: want 1 op.scan span, got %d", kind, len(scans))
		}
		sp := scans[0]
		if got := attrInt(t, sp, "act_rows"); got != res.RowsScanned {
			t.Errorf("%s: op.scan act_rows=%d, Result.RowsScanned=%d", kind, got, res.RowsScanned)
		}
		if got := attrInt(t, sp, "act_cycles"); uint64(got) != res.Breakdown.TotalCycles {
			t.Errorf("%s: op.scan act_cycles=%d, TotalCycles=%d", kind, got, res.Breakdown.TotalCycles)
		}
		for _, key := range []string{"est_rows", "est_cycles", "q_error", "source"} {
			if _, ok := sp.Attr(key); !ok {
				t.Errorf("%s: op.scan span lacks %s", kind, key)
			}
		}
		filter := trace.Root.Find("op.filter")
		if filter == nil {
			t.Fatalf("%s: no op.filter span", kind)
		}
		if got := attrInt(t, filter, "act_rows"); got != res.RowsPassed {
			t.Errorf("%s: op.filter act_rows=%d, Result.RowsPassed=%d", kind, got, res.RowsPassed)
		}
	}
}

// TestParallelScanPricedWithoutOffload: a PAR scan's morsels never offload
// (an offloaded aggregation leaves no partial state to merge), so with the
// offload layer on its estimate must be the one priced with offload off, not
// RM's offloaded price. RM itself, on the same DB, does offload.
func TestParallelScanPricedWithoutOffload(t *testing.T) {
	const q = `SELECT SUM(l_quantity), COUNT(*) FROM lineitem WHERE l_quantity < 24`
	scan := func(offload bool, kind EngineKind) (*Result, *obs.Span) {
		t.Helper()
		db := tpchDB(t, 6000)
		db.SetOffload(offload)
		if kind == PAR {
			db.SetParallel(ParallelConfig{Workers: 2})
		}
		res, trace, err := db.QueryTraced(q, OnEngine(kind))
		if err != nil {
			t.Fatalf("%s offload=%v: %v", kind, offload, err)
		}
		sp := trace.Root.Find("op.scan")
		if sp == nil {
			t.Fatalf("%s offload=%v: no op.scan span", kind, offload)
		}
		return res, sp
	}
	par, parScan := scan(true, PAR)
	if par.Offload != "" {
		t.Fatalf("PAR scan ran offloaded (%q); its morsels should not", par.Offload)
	}
	if expr, _ := parScan.Attr("expr"); strings.Contains(expr, " offload]") {
		t.Errorf("PAR scan priced as offloaded: %s", expr)
	}
	_, cpuScan := scan(false, PAR)
	if got, want := attrInt(t, parScan, "est_cycles"), attrInt(t, cpuScan, "est_cycles"); got != want {
		t.Errorf("PAR est_cycles with offload on = %d, with it off = %d", got, want)
	}
	if rm, rmScan := scan(true, RM); rm.Offload == "" || attrInt(t, rmScan, "est_cycles") == attrInt(t, parScan, "est_cycles") {
		t.Errorf("RM with offload on: Offload=%q, est_cycles equal to PAR's; the query no longer offloads", rm.Offload)
	}
}

// TestExplainAnalyzeJoinActualsReconcile runs the Q3/Q5/Q10-class join
// statements as EXPLAIN ANALYZE on all six paths: every side's Scan span
// must carry est/act numbers, and the per-side act_rows must sum exactly to
// the Result's RowsScanned (probe scanned + each build scanned).
func TestExplainAnalyzeJoinActualsReconcile(t *testing.T) {
	db := tpchDB(t, 3000)
	queries := map[string]string{"Q3": tpch.Q3SQL, "Q5": tpch.Q5SQL, "Q10": tpch.Q10SQL}
	for name, q := range queries {
		for _, kind := range joinEngineKinds {
			res, trace, err := db.QueryTraced(q, OnEngine(kind))
			if err != nil {
				t.Fatalf("%s/%s: %v", name, kind, err)
			}
			scans := scanSpans(trace.Root)
			wantSides := 2
			if name == "Q10" {
				wantSides = 3
			}
			if len(scans) != wantSides {
				t.Fatalf("%s/%s: want %d op.scan spans, got %d", name, kind, wantSides, len(scans))
			}
			var sum int64
			for _, sp := range scans {
				sum += attrInt(t, sp, "act_rows")
				for _, key := range []string{"est_cycles", "act_cycles", "source"} {
					if _, ok := sp.Attr(key); !ok {
						t.Errorf("%s/%s: scan span lacks %s (attrs: %v)", name, kind, key, sp.Attrs)
					}
				}
			}
			if sum != res.RowsScanned {
				t.Errorf("%s/%s: per-side act_rows sum to %d, Result.RowsScanned=%d",
					name, kind, sum, res.RowsScanned)
			}
			if got := trace.Root.AttributedCycles(); got != res.Breakdown.TotalCycles {
				t.Errorf("%s/%s: instrumentation perturbed attribution: %d vs %d",
					name, kind, got, res.Breakdown.TotalCycles)
			}
		}
	}
}

// TestStatementStoreEndToEnd drives the statement store through the DB
// façade: literal variants collapse onto one fingerprint, prepared and
// ad-hoc runs of the same text aggregate together, join statements record
// estimated-vs-actual selectivity, and parse failures count as errors.
func TestStatementStoreEndToEnd(t *testing.T) {
	db := tpchDB(t, 2000)
	stats := obs.NewStatStore()
	db.SetStatements(stats)

	if _, err := db.Query(`SELECT SUM(l_quantity) FROM lineitem WHERE l_quantity < 24`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`SELECT SUM(l_quantity) FROM lineitem WHERE l_quantity < 30`); err != nil {
		t.Fatal(err)
	}
	p, err := db.Prepare(`SELECT SUM(l_quantity) FROM lineitem WHERE l_quantity < 24`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(COL); err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryOn(AUTO, tpch.Q3SQL); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`SELECT nope FROM lineitem`); err == nil {
		t.Fatal("expected an error for an unknown column")
	}

	recs := stats.Snapshot()
	byText := map[string]obs.StatementRecord{}
	for _, r := range recs {
		byText[r.Text] = r
	}
	agg, ok := byText["SELECT SUM ( l_quantity ) FROM lineitem WHERE l_quantity < ?"]
	if !ok {
		t.Fatalf("no aggregated fingerprint for the literal variants; have %d records: %+v", len(recs), byText)
	}
	if agg.Calls != 3 {
		t.Errorf("literal variants + prepared run: calls=%d, want 3", agg.Calls)
	}
	if agg.Engines["RM"] != 2 || agg.Engines["COL"] != 1 {
		t.Errorf("engine counts: %v, want RM:2 COL:1", agg.Engines)
	}
	if agg.QErrorSamples == 0 || agg.MeanQError < 1 {
		t.Errorf("aggregate statement recorded no q-error: %+v", agg)
	}

	var join, failed *obs.StatementRecord
	for i := range recs {
		switch {
		case recs[i].Errors > 0:
			failed = &recs[i]
		case recs[i].RowsScan > 2000: // join scans lineitem + orders
			join = &recs[i]
		}
	}
	if join == nil {
		t.Fatalf("no join statement record found: %+v", recs)
	}
	if join.QErrorSamples == 0 {
		t.Errorf("join statement recorded no q-error: %+v", join)
	}
	if join.MeanActSel <= 0 {
		t.Errorf("join statement recorded no actual selectivity: %+v", join)
	}
	if failed == nil || failed.Calls != 1 || failed.TotalCycles != 0 {
		t.Errorf("parse failure not recorded as an error-only call: %+v", failed)
	}
}

// TestSlowQueryLog arms the slow log with a threshold every query exceeds
// and checks that entries capture the full trace, and that QueryTraced's own
// trace is reused rather than re-captured.
func TestSlowQueryLog(t *testing.T) {
	db := tpchDB(t, 2000)
	db.SetSlowThreshold(1)

	if _, err := db.Query(`SELECT SUM(l_quantity) FROM lineitem WHERE l_quantity < 24`); err != nil {
		t.Fatal(err)
	}
	_, trace, err := db.QueryTraced(tpch.Q3SQL, OnEngine(AUTO))
	if err != nil {
		t.Fatal(err)
	}

	sl := db.SlowLog()
	if sl == nil {
		t.Fatal("SetSlowThreshold did not arm the slow log")
	}
	entries := sl.Entries()
	if len(entries) != 2 {
		t.Fatalf("slow log has %d entries, want 2", len(entries))
	}
	// Entries are newest-first: the traced join, then the plain query.
	if entries[0].Trace != trace {
		t.Errorf("traced run's slow entry does not reuse the returned trace")
	}
	if entries[0].Cycles <= entries[0].Threshold {
		t.Errorf("slow entry below threshold: %+v", entries[0])
	}
	plain := entries[1]
	if plain.Trace == nil || plain.Trace.Root == nil {
		t.Fatalf("plain query's slow entry has no captured trace: %+v", plain)
	}
	if plain.Trace.Root.Find("op.scan") == nil {
		t.Errorf("plain query's captured trace lacks the plan.physical tree")
	}
	if _, ok := plain.Trace.Root.Attr("sql"); !ok {
		t.Errorf("capture trace lacks the sql attribute: %+v", plain.Trace.Root)
	}

	// Disarm: nothing further is captured.
	db.SetSlowThreshold(0)
	if _, err := db.Query(`SELECT SUM(l_tax) FROM lineitem`); err != nil {
		t.Fatal(err)
	}
	if got := sl.Total(); got != 2 {
		t.Errorf("disarmed slow log still captured: total=%d", got)
	}
}
