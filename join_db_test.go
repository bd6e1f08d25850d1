package rfabric

import (
	"strings"
	"testing"

	"rfabric/internal/tpch"
)

// tpchDB builds the multi-table TPC-H catalog at a small scale via the
// audit's NewTPCHDB builder: lineitem plus the orders/customer/part tables
// whose keys correlate with it, and a secondary index on l_shipdate so the
// IDX path has something to price.
func tpchDB(t *testing.T, lineitemRows int) *DB {
	t.Helper()
	db, err := NewTPCHDB(DefaultConfig(), lineitemRows, 1)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

var joinEngineKinds = []EngineKind{ROW, COL, RM, "IDX", PAR, AUTO}

// TestTPCHJoinQueriesAllEngines is the acceptance check: the Q3/Q5/Q10-class
// multi-table queries run end-to-end via SQL on every execution path and
// produce identical results.
func TestTPCHJoinQueriesAllEngines(t *testing.T) {
	db := tpchDB(t, 6000)
	queries := map[string]string{"Q3": tpch.Q3SQL, "Q5": tpch.Q5SQL, "Q10": tpch.Q10SQL}
	for name, q := range queries {
		t.Run(name, func(t *testing.T) {
			ref, err := db.QueryOn(ROW, q)
			if err != nil {
				t.Fatalf("ROW: %v", err)
			}
			if ref.RowsPassed == 0 || len(ref.Groups) == 0 {
				t.Fatalf("ROW produced an empty join result: %+v", ref)
			}
			for _, kind := range joinEngineKinds[1:] {
				res, err := db.QueryOn(kind, q)
				if err != nil {
					t.Fatalf("%s: %v", kind, err)
				}
				if err := ref.EquivalentTo(res, 1e-6); err != nil {
					t.Errorf("%s result diverges from ROW: %v", kind, err)
				}
			}
		})
	}
}

// TestTPCHQ3TracedReconciles runs Q3 as EXPLAIN ANALYZE on the serial and
// parallel paths: the span tree must attribute exactly the modeled total,
// with build and probe phases as separate spans, and each side's Scan span
// stamped with the access path it ran on.
func TestTPCHQ3TracedReconciles(t *testing.T) {
	db := tpchDB(t, 4000)
	for _, kind := range []EngineKind{RM, PAR, AUTO} {
		res, trace, err := db.QueryTraced(tpch.Q3SQL, OnEngine(kind))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if res.Breakdown.TotalCycles == 0 {
			t.Fatalf("%s: zero modeled cycles", kind)
		}
		if got := trace.Root.AttributedCycles(); got != res.Breakdown.TotalCycles {
			t.Fatalf("%s: span tree attributes %d cycles, Breakdown.TotalCycles is %d",
				kind, got, res.Breakdown.TotalCycles)
		}
		if trace.Root.Find("build[0]") == nil {
			t.Errorf("%s: trace has no build[0] span", kind)
		}
		if trace.Root.Find("probe") == nil && trace.Root.Find("morsels") == nil {
			t.Errorf("%s: trace has neither probe nor morsels span", kind)
		}
		scan := trace.Root.Find("op.scan")
		if scan == nil {
			t.Fatalf("%s: trace has no op.scan span", kind)
		}
		if src, ok := scan.Attr("source"); !ok || src == "" {
			t.Errorf("%s: op.scan span lacks a source attribute", kind)
		}
	}
}

// TestExplainJoin renders a join statement's physical plan: the join
// operator appears with its key equality, and the build side's chain is
// indented under it.
func TestExplainJoin(t *testing.T) {
	db := tpchDB(t, 400)
	out, err := db.Explain(tpch.Q3SQL)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Join", "l_orderkey = o_orderkey", "Scan[lineitem", "Scan[orders", "Aggregate"} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN output lacks %q:\n%s", want, out)
		}
	}
}

// TestJoinOnParallelDB checks the RM→PAR rerouting: with SetParallel active,
// a default Query on a join statement probes on PAR and still matches the
// serial result, with the offload layer off and on. With offload on, every
// morsel's probe runs behind the build side's Bloom filter (semi-join). The
// probe's Scan is stamped PAR, and the traced root reconciles.
func TestJoinOnParallelDB(t *testing.T) {
	queries := map[string]string{"Q3": tpch.Q3SQL, "Q5": tpch.Q5SQL, "Q10": tpch.Q10SQL}
	for _, offload := range []bool{false, true} {
		db := tpchDB(t, 3000)
		db.SetOffload(offload)
		db.SetParallel(ParallelConfig{Workers: 4, MorselRows: 512})
		for name, q := range queries {
			ref, err := db.QueryOn(ROW, q)
			if err != nil {
				t.Fatal(err)
			}
			res, trace, err := db.QueryTraced(q)
			if err != nil {
				t.Fatalf("%s offload=%v: %v", name, offload, err)
			}
			if res.Engine != "PAR" {
				t.Errorf("%s offload=%v: parallel DB routed join to %s, want PAR", name, offload, res.Engine)
			}
			if err := ref.EquivalentTo(res, 1e-6); err != nil {
				t.Errorf("%s offload=%v: PAR join diverges from ROW: %v", name, offload, err)
			}
			if want := map[bool]string{true: "semi-join"}[offload]; res.Offload != want {
				t.Errorf("%s offload=%v: Result.Offload = %q, want %q", name, offload, res.Offload, want)
			}
			// attachPlanSpans renders each join's build chain before its
			// input, so the probe's Scan is the last op.scan.
			scans := scanSpans(trace.Root)
			if src, _ := scans[len(scans)-1].Attr("source"); src != "PAR" {
				t.Errorf("%s offload=%v: probe Scan source = %q, want PAR", name, offload, src)
			}
			if got := trace.Root.AttributedCycles(); got != res.Breakdown.TotalCycles {
				t.Errorf("%s offload=%v: span tree attributes %d cycles, Breakdown.TotalCycles is %d",
					name, offload, got, res.Breakdown.TotalCycles)
			}
		}
	}
}

// TestJoinRMShipsLessThanROW runs a Q3-class join on ROW and on RM from the
// same cold hardware state: the results must agree, and RM — which packs
// only each side's touched columns — must ship fewer bytes to the CPU than
// ROW, which moves whole rows.
func TestJoinRMShipsLessThanROW(t *testing.T) {
	db := tpchDB(t, 4000)
	db.System().ResetState()
	row, err := db.QueryOn(ROW, tpch.Q3SQL)
	if err != nil {
		t.Fatal(err)
	}
	db.System().ResetState()
	rm, err := db.QueryOn(RM, tpch.Q3SQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(row.Groups) == 0 {
		t.Fatal("ROW produced an empty join result")
	}
	if err := row.EquivalentTo(rm, 0); err != nil {
		t.Errorf("RM join diverges from ROW: %v", err)
	}
	if rm.Breakdown.BytesToCPU >= row.Breakdown.BytesToCPU {
		t.Errorf("RM join shipped %d bytes, ROW moved %d", rm.Breakdown.BytesToCPU, row.Breakdown.BytesToCPU)
	}
}

// TestPrepareRejectsJoin pins the façade error for preparing a join: a join
// plan is stamped per run, so it is never cached as a shared fragment.
func TestPrepareRejectsJoin(t *testing.T) {
	db := tpchDB(t, 400)
	_, err := db.Prepare(tpch.Q3SQL)
	if err == nil || err.Error() != "rfabric: Prepare does not support JOIN statements" {
		t.Fatalf("Prepare(join) = %v, want the façade's JOIN error", err)
	}
}
