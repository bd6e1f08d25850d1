package experiments

import (
	"fmt"
	"io"

	"rfabric/internal/compress"
	"rfabric/internal/engine"
	"rfabric/internal/fabric"
	"rfabric/internal/geometry"
	"rfabric/internal/plan"
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

// offloadLab places (k INT64, mode CHAR(8), qty INT32, price FLOAT64)
// with a low-cardinality mode column, plus its dictionary-encoded twin.
func offloadLab(opt Options, rows int) (*lab, *table.Table, *compress.EncodedTable, error) {
	l, err := newLab(opt.System)
	if err != nil {
		return nil, nil, nil, err
	}
	sch := geometry.MustSchema(
		geometry.Column{Name: "k", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "mode", Type: geometry.Char, Width: 8},
		geometry.Column{Name: "qty", Type: geometry.Int32, Width: 4},
		geometry.Column{Name: "price", Type: geometry.Float64, Width: 8},
	)
	tbl, err := l.place("offload", sch, rows, genOffload, opt.Seed)
	if err != nil {
		return nil, nil, nil, err
	}
	enc, err := compress.EncodeTableDict(tbl, []int{1},
		l.sys.Arena.Alloc(int64(rows*sch.RowBytes())))
	if err != nil {
		return nil, nil, nil, err
	}
	return l, tbl, enc, nil
}

func genOffload(tbl *table.Table, rows int, seed int64) error {
	modes := []string{"AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB", "REG"}
	rng := newRand(seed)
	for r := 0; r < rows; r++ {
		if _, err := tbl.Append(1,
			table.I64(int64(r)),
			table.Str(modes[rng.Intn(len(modes))]),
			table.I32(int32(rng.Intn(100))),
			table.F64(float64(rng.Intn(10_000))/100),
		); err != nil {
			return err
		}
	}
	return nil
}

// runOffloadPoint runs root with cold state through path and records a
// grid cell, returning the result for equivalence checks.
func runOffloadPoint(res *OffloadResult, l *lab, root *plan.Node, path access,
	query, setting string) (*engine.Result, error) {
	r, err := l.run(root, path)
	if err != nil {
		return nil, fmt.Errorf("offload %s/%s: %w", query, setting, err)
	}
	st := l.sys.Fab.Stats() // reset by the run's cold start
	groups := len(r.Groups)
	if groups == 0 {
		groups = len(r.Aggs)
	}
	res.Points = append(res.Points, OffloadPoint{
		Query:        query,
		Setting:      setting,
		Program:      r.Offload,
		TotalCycles:  r.Breakdown.TotalCycles,
		BytesToCPU:   r.Breakdown.BytesToCPU,
		Groups:       groups,
		RowsFiltered: st.RowsSemiFiltered + st.RowsCodeFiltered,
	})
	return r, nil
}

// offloadAggPoints is the grouped-aggregation quadrant: SELECT mode,
// SUM(price), COUNT(*) WHERE qty < 70 GROUP BY mode, consumed CPU-side
// versus folded on-fabric, over raw rows and over dictionary codes. The
// offloaded runs must be bit-identical to their CPU counterparts — the
// fabric's fold mirrors the consumer's accumulator exactly.
func offloadAggPoints(opt Options, rows int, res *OffloadResult) error {
	l, tbl, enc, err := offloadLab(opt, rows)
	if err != nil {
		return err
	}
	root, err := l.lower("SELECT mode, SUM(price), COUNT(*) FROM offload WHERE qty < 70 GROUP BY mode")
	if err != nil {
		return err
	}
	for _, c := range []struct {
		storage string
		tbl     *table.Table
	}{{"raw", tbl}, {"dict", enc.Table}} {
		cpu, err := runOffloadPoint(res, l, root, func(*table.Table) engine.Source {
			return &engine.RMEngine{Tbl: c.tbl, Sys: l.sys, PushSelection: true}
		}, "group-agg", "cpu/"+c.storage)
		if err != nil {
			return err
		}
		off, err := runOffloadPoint(res, l, root, func(*table.Table) engine.Source {
			return &engine.RMEngine{Tbl: c.tbl, Sys: l.sys, Offload: true}
		}, "group-agg", "offload/"+c.storage)
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
	l, _, enc, err := offloadLab(opt, rows)
	if err != nil {
		return err
	}
	// mode <> 'AIR' keeps most rows, and grouping by qty makes the CPU-side
	// cell do real per-row consumption — otherwise both cells are bound by
	// the same fabric gather cost and the comparison measures noise. qty is
	// stored identically in both tables, so the grouped results must match
	// bit for bit even though one scan filtered in the code domain.
	const scan = "SELECT qty, SUM(price), COUNT(*) FROM offload"
	filtered, err := l.lower(scan + " WHERE mode <> 'AIR' GROUP BY qty")
	if err != nil {
		return err
	}
	cpu, err := runOffloadPoint(res, l, filtered, func(t *table.Table) engine.Source {
		return &engine.RMEngine{Tbl: t, Sys: l.sys, PushSelection: true}
	}, "dict-scan", "cpu/raw")
	if err != nil {
		return err
	}

	// The offloaded cell carries the predicate as dictionary codes instead.
	codes, entries, err := enc.MatchCodes(1, func(v table.Value) bool { return v.String() != "AIR" })
	if err != nil {
		return err
	}
	unfiltered, err := l.lower(scan + " GROUP BY qty")
	if err != nil {
		return err
	}
	off, err := runOffloadPoint(res, l, unfiltered, func(*table.Table) engine.Source {
		return &engine.RMEngine{Tbl: enc.Table, Sys: l.sys, Offload: true,
			DictFilters: []fabric.DictFilter{{Col: 1, Codes: codes, Entries: entries}}}
	}, "dict-scan", "offload/dict")
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
	l, err := tpchLab(opt, rows)
	if err != nil {
		return err
	}
	root, err := l.lower(tpch.Q3SQL)
	if err != nil {
		return err
	}
	runJoin := func(setting string, offload bool) (*engine.Result, error) {
		return runOffloadPoint(res, l, root, func(t *table.Table) engine.Source {
			// Only the lineitem probe offloads; the build side arms its filter.
			return &engine.RMEngine{Tbl: t, Sys: l.sys, Offload: offload && t.Name() == "lineitem"}
		}, "join", setting)
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
