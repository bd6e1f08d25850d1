package sql

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rfabric/internal/plan"
	"rfabric/internal/tpch"
)

var updateGolden = flag.Bool("update", false, "rewrite golden EXPLAIN files")

// TestExplainGolden pins the lowered operator tree for the TPC-H workload
// queries (the same three rfquery demos) under every access path. The golden
// files are the EXPLAIN contract: a change to lowering or to the plan
// renderer must show up here as a reviewed diff, not drift silently.
func TestExplainGolden(t *testing.T) {
	sch := tpch.LineitemSchema()
	queries := []struct{ name, sql string }{
		{"projection",
			"SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_quantity < 5"},
		{"q6",
			"SELECT SUM(l_extendedprice * l_discount) FROM lineitem " +
				"WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01' " +
				"AND l_discount BETWEEN 0.049 AND 0.071 AND l_quantity < 24"},
		{"q1",
			"SELECT l_returnflag, l_linestatus, SUM(l_quantity), SUM(l_extendedprice), " +
				"SUM(l_extendedprice * (1 - l_discount)), COUNT(*) FROM lineitem " +
				"WHERE l_shipdate <= DATE '1998-09-02' GROUP BY l_returnflag, l_linestatus"},
		{"q1_topn",
			"SELECT l_returnflag, l_linestatus, SUM(l_quantity), SUM(l_extendedprice), " +
				"SUM(l_extendedprice * (1 - l_discount)), COUNT(*) FROM lineitem " +
				"WHERE l_shipdate <= DATE '1998-09-02' GROUP BY l_returnflag, l_linestatus " +
				"ORDER BY 3 DESC, l_returnflag LIMIT 4"},
	}
	sources := []string{"ROW", "COL", "RM", "IDX", "PAR", "AUTO"}

	for _, qc := range queries {
		t.Run(qc.name, func(t *testing.T) {
			root, err := Compile(qc.sql, sch)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			fmt.Fprintf(&b, "query: %s\n", qc.sql)
			for _, src := range sources {
				if src == "AUTO" {
					root.Scan().Source = "" // renders as "?" until the optimizer prices it
				} else {
					root.Scan().Source = src
				}
				fmt.Fprintf(&b, "\n-- source=%s\n%s\n", src, root.Explain(sch))
			}
			got := b.String()
			path := filepath.Join("testdata", "explain_"+qc.name+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("EXPLAIN drifted from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
		})
	}
}

// TestExplainOffloadGolden pins the EXPLAIN rendering of fabric-offloaded
// plans: the Scan line's offload=... program descriptor and the " offload"
// marker inside the estimate block, for each offload shape the dispatch can
// stamp (ungrouped aggregation, grouped aggregation, Bloom-filtered join
// probe, and a compressed-domain dict-scan).
func TestExplainOffloadGolden(t *testing.T) {
	sch := tpch.LineitemSchema()
	cases := []struct {
		name, sql, offload string
	}{
		{"agg",
			"SELECT SUM(l_quantity), COUNT(*) FROM lineitem WHERE l_quantity < 24",
			"agg"},
		{"group-agg",
			"SELECT l_returnflag, SUM(l_quantity), COUNT(*) FROM lineitem " +
				"WHERE l_shipdate <= DATE '1998-09-02' GROUP BY l_returnflag",
			"group-agg"},
		{"semi-join",
			"SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_quantity < 5",
			"semi-join"},
		{"dict-scan",
			"SELECT l_orderkey, l_quantity FROM lineitem WHERE l_quantity < 5",
			"dict-scan"},
	}
	var b strings.Builder
	for _, c := range cases {
		root, err := Compile(c.sql, sch)
		if err != nil {
			t.Fatal(err)
		}
		scan := root.Scan()
		scan.Source = "RM"
		scan.Offload = c.offload
		scan.Est = &plan.Est{Engine: "RM", Cycles: 52000, Selectivity: 0.25,
			Rows: 4000, Offloaded: true}
		fmt.Fprintf(&b, "-- offload=%s\nquery: %s\n%s\n\n", c.name, c.sql, root.Explain(sch))
	}
	got := b.String()
	path := filepath.Join("testdata", "explain_offload.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("offload EXPLAIN drifted from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestExplainAnalyzedGolden pins the priced EXPLAIN rendering: the Scan line
// with the optimizer's estimate block (est[...]), the run's actuals
// (act[...]), and the derived q-error, exactly as EXPLAIN ANALYZE and the
// statement audit render them. Fixed Est/Act values stand in for a run so
// the golden is deterministic.
func TestExplainAnalyzedGolden(t *testing.T) {
	sch := tpch.LineitemSchema()
	root, err := Compile(
		"SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_quantity < 5", sch)
	if err != nil {
		t.Fatal(err)
	}
	scan := root.Scan()
	scan.Source = "RM"
	scan.Est = &plan.Est{Engine: "RM", Cycles: 80000, Selectivity: 0.333, Rows: 4000}
	scan.Act = &plan.Act{RowsScanned: 4000, RowsPassed: 1520, Cycles: 76500}
	got := root.Explain(sch)
	path := filepath.Join("testdata", "explain_analyzed.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("analyzed EXPLAIN drifted from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
