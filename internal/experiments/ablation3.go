package experiments

import (
	"fmt"

	"rfabric/internal/engine"
	"rfabric/internal/index"
	"rfabric/internal/table"
)

// AblationRMC models §IV-C's next step: integrating Relational Memory into
// the memory controller. Against the discrete (programmable-logic) instance,
// the integrated controller runs at core-complex clocks (lower CPU:fabric
// ratio), loses the device-aperture surcharge on delivered lines, and
// re-arms its gather window without a PL handshake. The sweep reports the
// same Q6-style scan on both design points.
func AblationRMC(opt Options, rows int) (*AblationResult, error) {
	res := &AblationResult{Name: "ABL-RMC", Knob: "discrete RM vs memory-controller integration"}
	rmc := opt.System
	rmc.Fabric.ClockRatio = 3   // controller clock domain, not 100 MHz PL
	rmc.Fabric.RefillCycles = 0 // window re-arms in the controller
	rmc.Cache.FabricHitCycles = 0
	for _, c := range []struct {
		label string
		cfg   engine.SystemConfig
	}{{"discrete-RM(PL)", opt.System}, {"RMC(integrated)", rmc}} {
		l, err := microLab(c.cfg, 16, rows, opt.Seed)
		if err != nil {
			return nil, err
		}
		root, err := l.lower(microSQL(seq(0, 4), nil))
		if err != nil {
			return nil, err
		}
		r, err := l.run(root, l.rm)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, AblationPoint{
			Setting:    c.label,
			Cycles:     map[string]uint64{"RM": r.Breakdown.TotalCycles},
			BytesToCPU: r.Breakdown.BytesToCPU,
		})
	}
	return res, nil
}

// AblationIndex quantifies §III-A's residual role for indexes: a point
// query answered by a B+tree traversal versus the same query as a fabric
// scan and a row scan, and a range query where the fabric scan competes
// with the index.
func AblationIndex(opt Options, rows int) (*AblationResult, error) {
	l, err := newLab(opt.System)
	if err != nil {
		return nil, err
	}
	// The key column is a random permutation: a secondary (unclustered)
	// index, so range lookups fetch scattered rows — the honest case.
	tbl, err := l.place("micro", microSchema(16), rows, genKeyed, opt.Seed)
	if err != nil {
		return nil, err
	}
	sys := l.sys
	idx, err := index.Build(tbl, 0, sys.Arena)
	if err != nil {
		return nil, err
	}

	// viaIndex runs an index probe from cold state, then fetches c05 and
	// c09 of every row it returns.
	viaIndex := func(probe func() []int) ([]int, uint64) {
		sys.ResetState()
		start := sys.Hier.Stats().Cycles
		matches := probe()
		for _, r := range matches {
			sys.Hier.Load(tbl.ColumnAddr(r, 5))
			sys.Hier.Load(tbl.ColumnAddr(r, 9))
		}
		return matches, sys.Hier.Stats().Cycles - start
	}

	res := &AblationResult{Name: "ABL-INDEX", Knob: "point/range access path"}
	probe := int32(rows / 2)
	matches, idxCycles := viaIndex(func() []int { return idx.Lookup(sys.Hier, int64(probe)) })
	if len(matches) != 1 {
		return nil, fmt.Errorf("index point lookup found %d rows, want 1", len(matches))
	}
	res.Points = append(res.Points, AblationPoint{
		Setting: "point/index",
		Cycles:  map[string]uint64{"IDX": idxCycles},
	})

	// The same point query as scans.
	pointQ, err := l.lower(fmt.Sprintf("SELECT c05, c09 FROM micro WHERE c00 = %d", probe))
	if err != nil {
		return nil, err
	}
	for _, path := range []access{l.row, l.rm} {
		r, err := l.run(pointQ, path)
		if err != nil {
			return nil, err
		}
		if r.RowsPassed != 1 {
			return nil, fmt.Errorf("%s point query matched %d rows", r.Engine, r.RowsPassed)
		}
		res.Points = append(res.Points, AblationPoint{
			Setting: "point/" + r.Engine,
			Cycles:  map[string]uint64{r.Engine: r.Breakdown.TotalCycles},
		})
	}

	// Range queries at growing selectivity: the index walks leaves and
	// fetches scattered rows; the fabric's cost is a flat scan. Somewhere
	// between a few percent and a few tens of percent the fabric takes
	// over — §III-A's division of labour, measured.
	pushSel := func(t *table.Table) engine.Source {
		return &engine.RMEngine{Tbl: t, Sys: sys, PushSelection: true}
	}
	for _, pct := range []int{1, 10, 30} {
		lo := int32(rows / 4)
		hi := lo + int32(rows*pct/100) - 1
		rangeRows, rangeCycles := viaIndex(func() []int { return idx.Range(sys.Hier, int64(lo), int64(hi)) })
		res.Points = append(res.Points, AblationPoint{
			Setting: fmt.Sprintf("range%d%%/index", pct),
			Cycles:  map[string]uint64{"IDX": rangeCycles},
		})
		rangeQ, err := l.lower(fmt.Sprintf("SELECT c05, c09 FROM micro WHERE c00 >= %d AND c00 <= %d", lo, hi))
		if err != nil {
			return nil, err
		}
		rm, err := l.run(rangeQ, pushSel)
		if err != nil {
			return nil, err
		}
		if int(rm.RowsPassed) != len(rangeRows) {
			return nil, fmt.Errorf("range mismatch: index %d rows, RM %d", len(rangeRows), rm.RowsPassed)
		}
		res.Points = append(res.Points, AblationPoint{
			Setting: fmt.Sprintf("range%d%%/RM", pct),
			Cycles:  map[string]uint64{"RM": rm.Breakdown.TotalCycles},
		})
	}
	return res, nil
}
