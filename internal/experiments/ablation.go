package experiments

import (
	"fmt"
	"io"

	"rfabric/internal/engine"
	"rfabric/internal/plan"
	"rfabric/internal/table"
	"rfabric/internal/tpch"
)

// AblationPoint is one setting of an ablation sweep.
type AblationPoint struct {
	Setting string
	Cycles  map[string]uint64
	// BytesToCPU is filled by sweeps where data movement is the point.
	BytesToCPU uint64
}

// AblationResult is one full sweep.
type AblationResult struct {
	Name   string
	Knob   string
	Points []AblationPoint
}

// WriteTable renders the sweep.
func (r *AblationResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Ablation %s — sweep of %s\n", r.Name, r.Knob)
	for _, p := range r.Points {
		fmt.Fprintf(w, "  %-16s", p.Setting)
		for _, name := range []string{"ROW", "COL", "RM", "IDX"} {
			if c, ok := p.Cycles[name]; ok {
				fmt.Fprintf(w, " %s=%-12d", name, c)
			}
		}
		if p.BytesToCPU > 0 {
			fmt.Fprintf(w, " bytesToCPU=%d", p.BytesToCPU)
		}
		fmt.Fprintln(w)
	}
}

// microSweep runs one projection of the 16-column micro table on a fresh
// system per setting: on ROW, COL and RM, or on RM alone when rmOnly.
func microSweep(res *AblationResult, opt Options, cols []int, rmOnly bool,
	settings []int, label func(int) string, apply func(*engine.SystemConfig, int)) error {
	for _, v := range settings {
		cfg := opt.System
		apply(&cfg, v)
		l, err := microLab(cfg, 16, opt.MicroRows, opt.Seed)
		if err != nil {
			return err
		}
		root, err := l.lower(microSQL(cols, nil))
		if err != nil {
			return err
		}
		var cycles map[string]uint64
		if rmOnly {
			r, err := l.run(root, l.rm)
			if err != nil {
				return fmt.Errorf("%s: %w", label(v), err)
			}
			cycles = map[string]uint64{"RM": r.Breakdown.TotalCycles}
		} else {
			all, err := l.runAll(root)
			if err != nil {
				return fmt.Errorf("%s: %w", label(v), err)
			}
			cycles = cyclesOf(all)
		}
		res.Points = append(res.Points, AblationPoint{Setting: label(v), Cycles: cycles})
	}
	return nil
}

// AblationPrefetchStreams sweeps the prefetcher's stream budget, the
// mechanism behind COL's ≤4-column advantage in Figure 5. The query touches
// 8 columns; with generous stream budgets COL recovers, with 1 stream it
// collapses.
func AblationPrefetchStreams(opt Options, streams []int) (*AblationResult, error) {
	res := &AblationResult{Name: "ABL-PREFETCH", Knob: "prefetcher stream budget"}
	return res, microSweep(res, opt, seq(0, 8), false, streams,
		func(n int) string { return fmt.Sprintf("streams=%d", n) },
		func(c *engine.SystemConfig, n int) { c.Cache.Prefetch.Streams = n })
}

// AblationFabricBuffer sweeps the on-fabric data memory (the paper's
// prototype has 2 MB, refilled when full, §V).
func AblationFabricBuffer(opt Options, bufferBytes []int) (*AblationResult, error) {
	res := &AblationResult{Name: "ABL-BUFFER", Knob: "fabric buffer bytes"}
	// A wide geometry so realistic buffer sizes need multiple refills.
	return res, microSweep(res, opt, seq(0, 12), true, bufferBytes,
		func(b int) string { return fmt.Sprintf("buffer=%dKiB", b>>10) },
		func(c *engine.SystemConfig, b int) { c.Fabric.BufferBytes = b })
}

// AblationFabricClock sweeps the CPU:fabric clock ratio (the prototype runs
// the programmable logic at 100 MHz against 1.5 GHz cores, ratio 15).
func AblationFabricClock(opt Options, ratios []int) (*AblationResult, error) {
	res := &AblationResult{Name: "ABL-CLOCK", Knob: "CPU cycles per fabric cycle"}
	return res, microSweep(res, opt, seq(0, 2), true, ratios,
		func(cr int) string { return fmt.Sprintf("ratio=1:%d", cr) },
		func(c *engine.SystemConfig, cr int) { c.Fabric.ClockRatio = cr })
}

// AblationDRAMBanks sweeps bank-level parallelism, which bounds how well the
// fabric overlaps its gathers.
func AblationDRAMBanks(opt Options, banks []int) (*AblationResult, error) {
	res := &AblationResult{Name: "ABL-BANKS", Knob: "DRAM banks"}
	return res, microSweep(res, opt, seq(0, 6), false, banks,
		func(b int) string { return fmt.Sprintf("banks=%d", b) },
		func(c *engine.SystemConfig, b int) { c.DRAM.Banks = b })
}

// AblationMVCC compares hardware timestamp filtering (in the fabric,
// §III-C) against the software visibility check the row engine performs,
// over a versioned table where a third of the versions are dead.
func AblationMVCC(opt Options, rows int) (*AblationResult, error) {
	l, err := newLab(opt.System)
	if err != nil {
		return nil, err
	}
	tbl, err := l.place("micro", microSchema(16), rows, genMicro, opt.Seed, table.WithMVCC())
	if err != nil {
		return nil, err
	}
	for r := 0; r < rows; r += 3 {
		if err := tbl.SetEndTS(r, 5); err != nil {
			return nil, err
		}
	}
	root, err := l.lower(microSQL([]int{0, 4, 8}, nil))
	if err != nil {
		return nil, err
	}
	snap := uint64(7)
	root.Scan().Snapshot = &snap

	res := &AblationResult{Name: "ABL-MVCC", Knob: "visibility filtering location"}
	row, err := l.run(root, l.row)
	if err != nil {
		return nil, err
	}
	rm, err := l.run(root, l.rm)
	if err != nil {
		return nil, err
	}
	if err := rm.EquivalentTo(row, 0); err != nil {
		return nil, fmt.Errorf("hardware and software visibility disagree: %w", err)
	}
	res.Points = append(res.Points,
		AblationPoint{Setting: "software(ROW)", Cycles: map[string]uint64{"ROW": row.Breakdown.TotalCycles}},
		AblationPoint{Setting: "hardware(RM)", Cycles: map[string]uint64{"RM": rm.Breakdown.TotalCycles}},
	)
	return res, nil
}

// AblationPushdown compares the three RM operating points on TPC-H Q6:
// projection-only (the paper's prototype), selection pushdown, and
// selection+aggregation pushdown (§IV-B). Aggregation pushdown is measured
// on the plain-column sum the hardware supports.
func AblationPushdown(opt Options, rows int) (*AblationResult, error) {
	l, err := newLab(opt.System)
	if err != nil {
		return nil, err
	}
	if _, err := l.place("lineitem", tpch.LineitemSchema(), rows, tpch.Generate, opt.Seed); err != nil {
		return nil, err
	}
	q6, err := l.lower(tpch.Q6SQL)
	if err != nil {
		return nil, err
	}
	// The plain-column variant sums l_extendedprice so the fabric can fold
	// it without arithmetic.
	plain, err := l.lower("SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem WHERE " + tpch.Q6Where)
	if err != nil {
		return nil, err
	}

	res := &AblationResult{Name: "ABL-PUSHDOWN", Knob: "fabric operator pushdown"}
	for _, p := range []struct {
		label string
		root  *plan.Node
		path  access
	}{
		{"projection-only", q6, l.rm},
		{"+selection", q6, func(t *table.Table) engine.Source {
			return &engine.RMEngine{Tbl: t, Sys: l.sys, PushSelection: true}
		}},
		{"+aggregation", plain, func(t *table.Table) engine.Source {
			return &engine.RMEngine{Tbl: t, Sys: l.sys, PushSelection: true, PushAggregation: true}
		}},
	} {
		r, err := l.run(p.root, p.path)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, AblationPoint{
			Setting:    p.label,
			Cycles:     map[string]uint64{"RM": r.Breakdown.TotalCycles},
			BytesToCPU: r.Breakdown.BytesToCPU,
		})
	}
	return res, nil
}

func cyclesOf(all map[string]*engine.Result) map[string]uint64 {
	out := make(map[string]uint64, len(all))
	for name, r := range all {
		out[name] = r.Breakdown.TotalCycles
	}
	return out
}
