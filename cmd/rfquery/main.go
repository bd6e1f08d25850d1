// Command rfquery loads a TPC-H-style lineitem table into the simulated
// platform and runs mini-SQL queries over it on any of the three execution
// paths, printing results and the modeled cost side by side — a hands-on way
// to see the fabric's effect on an ad-hoc query.
//
// Usage:
//
//	rfquery [-rows N] [-engine RM|ROW|COL|all] [-explain] "SELECT ... FROM lineitem ..."
//
// With no query argument, rfquery runs a small demo set including TPC-H Q1
// and Q6. With -explain, each query additionally prints its EXPLAIN ANALYZE
// span tree — parse, plan, engine dispatch, per-morsel/per-chunk execution —
// with modeled cycles and bytes per node.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"rfabric"
	"rfabric/internal/tpch"
)

var demoQueries = []string{
	"SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_quantity < 5",
	tpch.Q6SQL,
	tpch.Q1SQL,
	tpch.Q1SQL + "\nORDER BY 3 DESC, l_returnflag LIMIT 4",
}

func main() {
	rows := flag.Int("rows", 50_000, "lineitem rows to generate")
	engineFlag := flag.String("engine", "all", "execution path: RM, ROW, COL, AUTO, or all")
	explain := flag.Bool("explain", false, "print each run's EXPLAIN ANALYZE span tree")
	flag.Parse()

	db, err := rfabric.Open(rfabric.DefaultConfig())
	if err != nil {
		fatalf("open: %v", err)
	}
	if _, err := db.CreateTable("lineitem", tpch.LineitemSchema(), *rows); err != nil {
		fatalf("create: %v", err)
	}
	tbl, _ := db.Table("lineitem")
	if err := tpch.Generate(tbl, *rows, 1); err != nil {
		fatalf("generate: %v", err)
	}
	fmt.Printf("loaded lineitem: %d rows, %.1f MB row-oriented base data\n\n", tbl.NumRows(), float64(tbl.SizeBytes())/(1<<20))

	queries := flag.Args()
	if len(queries) == 0 {
		queries = demoQueries
	}

	var kinds []rfabric.EngineKind
	switch strings.ToUpper(*engineFlag) {
	case "ALL":
		kinds = []rfabric.EngineKind{rfabric.ROW, rfabric.COL, rfabric.RM}
	case "RM":
		kinds = []rfabric.EngineKind{rfabric.RM}
	case "ROW":
		kinds = []rfabric.EngineKind{rfabric.ROW}
	case "COL":
		kinds = []rfabric.EngineKind{rfabric.COL}
	case "AUTO":
		kinds = []rfabric.EngineKind{rfabric.AUTO}
	default:
		fatalf("unknown engine %q", *engineFlag)
	}

	for qi, query := range queries {
		if qi > 0 {
			fmt.Println()
		}
		fmt.Println("query:", query)
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "engine\trows\tcycles\tbytes-from-DRAM\tbytes-to-CPU\tresult")
		var traces []*rfabric.Trace
		for _, kind := range kinds {
			db.System().ResetState()
			var res *rfabric.Result
			var err error
			if *explain {
				var trace *rfabric.Trace
				res, trace, err = db.QueryTraced(query, rfabric.OnEngine(kind))
				traces = append(traces, trace)
			} else {
				res, err = db.QueryOn(kind, query)
			}
			if err != nil {
				fatalf("%s: %v", kind, err)
			}
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%s\n",
				res.Engine, res.RowsPassed, res.Breakdown.TotalCycles,
				res.Breakdown.BytesFromDRAM, res.Breakdown.BytesToCPU, summarize(res))
		}
		w.Flush()
		for _, trace := range traces {
			fmt.Println()
			trace.Render(os.Stdout)
		}
	}
}

func summarize(res *rfabric.Result) string {
	switch {
	case len(res.Groups) > 0:
		parts := make([]string, 0, len(res.Groups))
		for _, g := range res.Groups {
			keys := make([]string, len(g.Key))
			for i, k := range g.Key {
				keys[i] = k.String()
			}
			parts = append(parts, strings.Join(keys, "/")+fmt.Sprintf("(%d)", g.Count))
		}
		return "groups: " + strings.Join(parts, " ")
	case len(res.Aggs) > 0:
		parts := make([]string, len(res.Aggs))
		for i, v := range res.Aggs {
			parts[i] = v.String()
		}
		return "aggs: " + strings.Join(parts, ", ")
	default:
		return fmt.Sprintf("checksum %#x", res.Checksum)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rfquery: "+format+"\n", args...)
	os.Exit(1)
}
