package experiments

import (
	"fmt"
	"io"

	"rfabric/internal/compress"
	"rfabric/internal/engine"
	"rfabric/internal/expr"
	"rfabric/internal/fabric"
	"rfabric/internal/geometry"
	"rfabric/internal/sql"
	"rfabric/internal/table"
	"rfabric/internal/tpch"
)

// OffloadPoint is one cell of the operator-offload ablation grid: a query
// class run with the offload layer on or off, over raw or
// dictionary-encoded storage.
type OffloadPoint struct {
	// Query names the query class: group-agg, dict-scan, or join.
	Query string `json:"query"`
	// Setting is "cpu" or "offload" plus the storage encoding, e.g.
	// "offload/dict".
	Setting string `json:"setting"`
	// Program is the fabric offload program that ran ("group-agg", "agg",
	// "semi-join", ...); empty when the query was consumed CPU-side.
	Program string `json:"program"`
	// TotalCycles is the modeled end-to-end cost.
	TotalCycles uint64 `json:"total_cycles"`
	// BytesToCPU is the traffic that crossed from the hierarchy into the
	// core — the quantity the offload layer exists to reduce.
	BytesToCPU uint64 `json:"bytes_to_cpu"`
	// Groups is the result cardinality (aggregate terms when ungrouped).
	Groups int `json:"groups"`
	// RowsFiltered counts probe rows the fabric dropped before shipping
	// (Bloom semi-join rejections plus dictionary code-filter rejections).
	RowsFiltered uint64 `json:"rows_filtered"`
}

// OffloadResult is the offload on/off × encoded/raw ablation: the same
// grouped aggregation, compressed scan, and Q3-class join executed with the
// work consumed CPU-side and with it offloaded to the fabric. Every
// offload/CPU pair is verified equivalent during the run, so the points
// differ only in where the work happened and what had to move.
type OffloadResult struct {
	Rows   int            `json:"rows"`
	Points []OffloadPoint `json:"points"`
}

func (r *OffloadResult) point(q string) map[string]*OffloadPoint {
	out := map[string]*OffloadPoint{}
	for i := range r.Points {
		if r.Points[i].Query == q {
			out[r.Points[i].Setting] = &r.Points[i]
		}
	}
	return out
}

// AblationOffload runs the grid. rows sizes the base tables; the join pair
// uses rows probe-side lineitems.
func AblationOffload(opt Options, rows int) (*OffloadResult, error) {
	res := &OffloadResult{Rows: rows}
	if err := offloadAggPoints(opt, rows, res); err != nil {
		return nil, err
	}
	if err := offloadDictScanPoints(opt, rows, res); err != nil {
		return nil, err
	}
	if err := offloadJoinPoints(opt, rows, res); err != nil {
		return nil, err
	}
	return res, nil
}

// offloadFixture builds (k INT64, mode CHAR(8), qty INT32, price FLOAT64)
// with a low-cardinality mode column, plus its dictionary-encoded twin.
func offloadFixture(opt Options, rows int) (*engine.System, *table.Table, *compress.EncodedTable, error) {
	sys, err := engine.NewSystem(opt.System)
	if err != nil {
		return nil, nil, nil, err
	}
	sch := geometry.MustSchema(
		geometry.Column{Name: "k", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "mode", Type: geometry.Char, Width: 8},
		geometry.Column{Name: "qty", Type: geometry.Int32, Width: 4},
		geometry.Column{Name: "price", Type: geometry.Float64, Width: 8},
	)
	tbl, err := table.New("offload", sch, table.WithCapacity(rows),
		table.WithBaseAddr(sys.Arena.Alloc(int64(rows*sch.RowBytes()))))
	if err != nil {
		return nil, nil, nil, err
	}
	modes := []string{"AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB", "REG"}
	rng := newRand(opt.Seed)
	for r := 0; r < rows; r++ {
		if _, err := tbl.Append(1,
			table.I64(int64(r)),
			table.Str(modes[rng.Intn(len(modes))]),
			table.I32(int32(rng.Intn(100))),
			table.F64(float64(rng.Intn(10_000))/100),
		); err != nil {
			return nil, nil, nil, err
		}
	}
	enc, err := compress.EncodeTableDict(tbl, []int{1},
		sys.Arena.Alloc(int64(rows*sch.RowBytes())))
	if err != nil {
		return nil, nil, nil, err
	}
	return sys, tbl, enc, nil
}

// runOffloadPoint executes q on one engine configuration with cold state and
// records a grid cell, returning the result for equivalence checks.
func runOffloadPoint(res *OffloadResult, sys *engine.System, rm *engine.RMEngine,
	q engine.Query, query, setting string) (*engine.Result, error) {
	sys.ResetState()
	before := sys.Fab.Stats()
	r, err := rm.Execute(q)
	if err != nil {
		return nil, fmt.Errorf("offload %s/%s: %w", query, setting, err)
	}
	after := sys.Fab.Stats()
	groups := len(r.Groups)
	if groups == 0 {
		groups = len(r.Aggs)
	}
	res.Points = append(res.Points, OffloadPoint{
		Query:       query,
		Setting:     setting,
		Program:     r.Offload,
		TotalCycles: r.Breakdown.TotalCycles,
		BytesToCPU:  r.Breakdown.BytesToCPU,
		Groups:      groups,
		RowsFiltered: (after.RowsSemiFiltered - before.RowsSemiFiltered) +
			(after.RowsCodeFiltered - before.RowsCodeFiltered),
	})
	return r, nil
}

// offloadAggPoints is the grouped-aggregation quadrant: SELECT mode,
// SUM(price), COUNT(*) WHERE qty < 70 GROUP BY mode, consumed CPU-side
// versus folded on-fabric, over raw rows and over dictionary codes. The
// offloaded runs must be bit-identical to their CPU counterparts — the
// fabric's fold mirrors the consumer's accumulator exactly.
func offloadAggPoints(opt Options, rows int, res *OffloadResult) error {
	sys, tbl, enc, err := offloadFixture(opt, rows)
	if err != nil {
		return err
	}
	q := engine.Query{
		Selection:  expr.Conjunction{{Col: 2, Op: expr.Lt, Operand: table.I32(70)}},
		GroupBy:    []int{1},
		Aggregates: []engine.AggTerm{{Kind: expr.Sum, Arg: expr.ColRef{Col: 3}}, {Kind: expr.Count}},
	}
	for _, c := range []struct {
		storage string
		tbl     *table.Table
	}{{"raw", tbl}, {"dict", enc.Table}} {
		cpu, err := runOffloadPoint(res, sys,
			&engine.RMEngine{Tbl: c.tbl, Sys: sys, PushSelection: true},
			q, "group-agg", "cpu/"+c.storage)
		if err != nil {
			return err
		}
		off, err := runOffloadPoint(res, sys,
			&engine.RMEngine{Tbl: c.tbl, Sys: sys, Offload: true},
			q, "group-agg", "offload/"+c.storage)
		if err != nil {
			return err
		}
		if err := cpu.EquivalentTo(off, 0); err != nil {
			return fmt.Errorf("offload group-agg/%s diverged from CPU-side: %w", c.storage, err)
		}
	}
	return nil
}

// offloadDictScanPoints is the compression-aware scan pair: a value-domain
// predicate over the mode column answered by a CPU-side scan of raw rows
// versus a fabric code-domain filter over the encoded table (the predicate
// is translated once against the dictionary; rows are filtered by stored
// code without decompression).
func offloadDictScanPoints(opt Options, rows int, res *OffloadResult) error {
	sys, tbl, enc, err := offloadFixture(opt, rows)
	if err != nil {
		return err
	}
	// mode <> 'AIR' keeps most rows, and grouping by qty makes the CPU-side
	// cell do real per-row consumption — otherwise both cells are bound by
	// the same fabric gather cost and the comparison measures noise. qty is
	// stored identically in both tables, so the grouped results must match
	// bit for bit even though one scan filtered in the code domain.
	match := func(v table.Value) bool { return v.String() != "AIR" }
	q := engine.Query{
		GroupBy:    []int{2},
		Aggregates: []engine.AggTerm{{Kind: expr.Sum, Arg: expr.ColRef{Col: 3}}, {Kind: expr.Count}},
	}

	qCPU := q
	qCPU.Selection = expr.Conjunction{{Col: 1, Op: expr.Ne, Operand: table.Str("AIR")}}
	cpu, err := runOffloadPoint(res, sys,
		&engine.RMEngine{Tbl: tbl, Sys: sys, PushSelection: true},
		qCPU, "dict-scan", "cpu/raw")
	if err != nil {
		return err
	}

	codes, entries, err := enc.MatchCodes(1, match)
	if err != nil {
		return err
	}
	off, err := runOffloadPoint(res, sys,
		&engine.RMEngine{Tbl: enc.Table, Sys: sys, Offload: true,
			DictFilters: []fabric.DictFilter{{Col: 1, Codes: codes, Entries: entries}}},
		q, "dict-scan", "offload/dict")
	if err != nil {
		return err
	}
	// The value-domain predicate must select exactly the dictionary-matched
	// modes, or the two cells measured different queries.
	if err := cpu.EquivalentTo(off, 0); err != nil {
		return fmt.Errorf("dict-scan offload diverged from CPU-side: %w", err)
	}
	return nil
}

// offloadJoinPoints runs the Q3-class lineitem ⋈ orders join with a plain
// RM probe versus a probe whose scan the build side arms with a Bloom
// semi-join filter: fabric-rejected probe rows never ship, false positives
// are re-checked CPU-side, and the grouped result is unchanged.
func offloadJoinPoints(opt Options, rows int, res *OffloadResult) error {
	sys, err := engine.NewSystem(opt.System)
	if err != nil {
		return err
	}
	mk := func(name string, sch *geometry.Schema, n int,
		gen func(*table.Table, int, int64) error, seed int64) (*table.Table, error) {
		t, err := table.New(name, sch, table.WithCapacity(n),
			table.WithBaseAddr(sys.Arena.Alloc(int64(n*sch.RowBytes()))))
		if err != nil {
			return nil, err
		}
		return t, gen(t, n, seed)
	}
	li, err := mk("lineitem", tpch.LineitemSchema(), rows, tpch.Generate, opt.Seed)
	if err != nil {
		return err
	}
	ord, err := mk("orders", tpch.OrdersSchema(), tpch.OrdersFor(rows), tpch.GenerateOrders, opt.Seed+1)
	if err != nil {
		return err
	}
	lookup := func(name string) (*geometry.Schema, error) {
		switch name {
		case "lineitem":
			return li.Schema(), nil
		case "orders":
			return ord.Schema(), nil
		}
		return nil, fmt.Errorf("offload join: unknown table %q", name)
	}
	st, err := sql.Parse(tpch.Q3SQL)
	if err != nil {
		return err
	}
	root, err := sql.LowerCatalog(st, lookup)
	if err != nil {
		return err
	}
	jp, _, err := engine.FromJoinPlan(root, lookup)
	if err != nil {
		return err
	}
	byName := func(name string) *table.Table {
		if name == "orders" {
			return ord
		}
		return li
	}

	runJoin := func(setting string, offload bool) (*engine.Result, error) {
		sys.ResetState()
		before := sys.Fab.Stats()
		r, err := (&engine.JoinExec{
			Plan:  jp,
			Probe: &engine.RMEngine{Tbl: byName(jp.Probe.Table), Sys: sys, Offload: offload},
			Builds: buildSources(jp, byName, func(t *table.Table) engine.Source {
				return &engine.RMEngine{Tbl: t, Sys: sys}
			}),
		}).Execute()
		if err != nil {
			return nil, fmt.Errorf("offload join/%s: %w", setting, err)
		}
		after := sys.Fab.Stats()
		res.Points = append(res.Points, OffloadPoint{
			Query:        "join",
			Setting:      setting,
			Program:      r.Offload,
			TotalCycles:  r.Breakdown.TotalCycles,
			BytesToCPU:   r.Breakdown.BytesToCPU,
			Groups:       len(r.Groups),
			RowsFiltered: after.RowsSemiFiltered - before.RowsSemiFiltered,
		})
		return r, nil
	}
	plain, err := runJoin("cpu/raw", false)
	if err != nil {
		return err
	}
	bloom, err := runJoin("offload/raw", true)
	if err != nil {
		return err
	}
	if err := plain.EquivalentTo(bloom, 1e-9); err != nil {
		return fmt.Errorf("Bloom-filtered join diverged from unfiltered: %w", err)
	}
	return nil
}

// WriteTable renders the grid.
func (r *OffloadResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Operator offload ablation — %d rows\n", r.Rows)
	fmt.Fprintf(w, "%-10s %-13s %-10s %14s %12s %8s %10s\n",
		"query", "setting", "program", "cycles", "bytesToCPU", "groups", "filtered")
	for _, p := range r.Points {
		prog := p.Program
		if prog == "" {
			prog = "-"
		}
		fmt.Fprintf(w, "%-10s %-13s %-10s %14d %12d %8d %10d\n",
			p.Query, p.Setting, prog, p.TotalCycles, p.BytesToCPU, p.Groups, p.RowsFiltered)
	}
}

// CheckShape verifies the offload layer's economic claims: every offloaded
// cell strictly reduces both bytes-to-CPU and total modeled cycles against
// its CPU-side counterpart, the fabric actually ran an offload program where
// one was requested, and the filtering cells dropped rows on-fabric.
func (r *OffloadResult) CheckShape() []string {
	var bad []string
	pair := func(q, cpu, off string) (*OffloadPoint, *OffloadPoint) {
		pts := r.point(q)
		c, o := pts[cpu], pts[off]
		if c == nil || o == nil {
			bad = append(bad, fmt.Sprintf("offload: %s missing %s/%s points", q, cpu, off))
			return nil, nil
		}
		if o.Program == "" {
			bad = append(bad, fmt.Sprintf("offload: %s %s ran without an offload program", q, off))
		}
		if c.Program != "" && q != "join" {
			bad = append(bad, fmt.Sprintf("offload: %s %s claims program %q on the CPU-side run", q, cpu, c.Program))
		}
		if o.BytesToCPU >= c.BytesToCPU {
			bad = append(bad, fmt.Sprintf("offload: %s moved %d bytes to CPU offloaded vs %d CPU-side — no reduction",
				q, o.BytesToCPU, c.BytesToCPU))
		}
		if o.TotalCycles >= c.TotalCycles {
			bad = append(bad, fmt.Sprintf("offload: %s cost %d cycles offloaded vs %d CPU-side — no reduction",
				q, o.TotalCycles, c.TotalCycles))
		}
		if o.Groups != c.Groups {
			bad = append(bad, fmt.Sprintf("offload: %s cardinality changed (%d vs %d groups)", q, o.Groups, c.Groups))
		}
		return c, o
	}
	pair("group-agg", "cpu/raw", "offload/raw")
	pair("group-agg", "cpu/dict", "offload/dict")
	if _, o := pair("dict-scan", "cpu/raw", "offload/dict"); o != nil && o.RowsFiltered == 0 {
		bad = append(bad, "offload: dict-scan rejected no rows in the code domain")
	}
	if _, o := pair("join", "cpu/raw", "offload/raw"); o != nil && o.RowsFiltered == 0 {
		bad = append(bad, "offload: Bloom semi-join dropped no probe rows")
	}
	return bad
}
