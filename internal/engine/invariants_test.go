package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"rfabric/internal/colstore"
	"rfabric/internal/index"
	"rfabric/internal/obs"
	"rfabric/internal/table"
)

// TestBreakdownInvariants property-checks the cost model across randomized
// schemas, data, and queries on every execution path:
//
//   - demand paths (ROW, COL, IDX): BytesToCPU never exceeds BytesFromDRAM
//     (the hierarchy cannot deliver more than memory produced), and
//     TotalCycles is at least both the demand path (compute + exposed
//     memory latency) and the DRAM occupancy floor;
//   - the RM pipeline: TotalCycles is at least the pipeline total, which is
//     at least the producer's share;
//   - every path: the trace's root span AttributedCycles reconciles exactly
//     with Breakdown.TotalCycles.
func TestBreakdownInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(8_112_358))
	for i := 0; i < 60; i++ {
		t.Run(fmt.Sprintf("%03d", i), func(t *testing.T) { invariantTrial(t, rng) })
	}
}

func invariantTrial(t *testing.T, rng *rand.Rand) {
	t.Helper()
	sch := genSchema(rng)
	sys := MustSystem(DefaultSystemConfig())

	rows := 1 + rng.Intn(400)
	base := sys.Arena.Alloc(int64(rows * sch.RowBytes()))
	tbl, err := table.New("prop", sch, table.WithCapacity(rows), table.WithBaseAddr(base))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rows; r++ {
		vals := make([]table.Value, sch.NumColumns())
		for c := range vals {
			vals[c] = genValue(rng, sch.Column(c))
		}
		tbl.MustAppend(1, vals...)
	}
	q := genQuery(rng, sch, nil)
	if err := q.Validate(sch); err != nil {
		t.Fatalf("generated query invalid: %v", err)
	}

	store, err := colstore.FromTable(tbl, sys.Arena)
	if err != nil {
		t.Fatal(err)
	}

	type run struct {
		name   string
		demand bool
		exec   func(tr *obs.Tracer) (*Result, error)
	}
	runs := []run{
		{"ROW", true, func(tr *obs.Tracer) (*Result, error) {
			return (&RowEngine{Tbl: tbl, Sys: sys, Tracer: tr}).Execute(q)
		}},
		{"COL", true, func(tr *obs.Tracer) (*Result, error) {
			return (&ColEngine{Store: store, Sys: sys, Tracer: tr}).Execute(q)
		}},
		{"RM", false, func(tr *obs.Tracer) (*Result, error) {
			return (&RMEngine{Tbl: tbl, Sys: sys, Tracer: tr}).Execute(q)
		}},
		{"RM+push", false, func(tr *obs.Tracer) (*Result, error) {
			return (&RMEngine{Tbl: tbl, Sys: sys, PushSelection: true, Tracer: tr}).Execute(q)
		}},
		{"RM+offload", false, func(tr *obs.Tracer) (*Result, error) {
			return (&RMEngine{Tbl: tbl, Sys: sys, Offload: true, Tracer: tr}).Execute(q)
		}},
	}
	if _, _, constrained := q.Selection.KeyRange(0); constrained {
		idx, err := index.Build(tbl, 0, sys.Arena)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run{"IDX", true, func(tr *obs.Tracer) (*Result, error) {
			return (&IndexEngine{Tbl: tbl, Sys: sys, Idx: idx, Tracer: tr}).Execute(q)
		}})
	}
	parWorkers := 1 + rng.Intn(8)
	runs = append(runs, run{"PAR", false, func(tr *obs.Tracer) (*Result, error) {
		e := &ParallelEngine{
			Tbl: tbl, Sys: sys,
			Par:    ParallelConfig{Workers: parWorkers, MorselRows: 16 + rng.Intn(96)},
			Tracer: tr,
		}
		return e.Execute(q)
	}})

	for _, rn := range runs {
		sys.ResetState()
		tr := obs.NewTracer("query")
		res, err := rn.exec(tr)
		if err != nil {
			t.Fatalf("%s: %v\nquery: %+v", rn.name, err, q)
		}
		b := res.Breakdown
		if rn.demand {
			if b.BytesToCPU > b.BytesFromDRAM {
				t.Errorf("%s: BytesToCPU %d > BytesFromDRAM %d", rn.name, b.BytesToCPU, b.BytesFromDRAM)
			}
			if b.TotalCycles < b.CPUCycles() {
				t.Errorf("%s: TotalCycles %d < demand path %d", rn.name, b.TotalCycles, b.CPUCycles())
			}
			if floor := sys.Mem.OccupancyCycles(b.BytesFromDRAM); b.TotalCycles < floor {
				t.Errorf("%s: TotalCycles %d < occupancy floor %d", rn.name, b.TotalCycles, floor)
			}
		} else if rn.name != "PAR" {
			// PAR's total is a makespan over workers; the summed morsel
			// pipeline legitimately exceeds it, so only single-system
			// pipeline runs get these bounds.
			if b.TotalCycles < b.PipelineCycles {
				t.Errorf("%s: TotalCycles %d < PipelineCycles %d", rn.name, b.TotalCycles, b.PipelineCycles)
			}
			if b.PipelineCycles < b.ProducerCycles {
				t.Errorf("%s: PipelineCycles %d < ProducerCycles %d", rn.name, b.PipelineCycles, b.ProducerCycles)
			}
		}
		if got := tr.Root().AttributedCycles(); got != b.TotalCycles {
			t.Errorf("%s: span tree attributes %d cycles, Breakdown.TotalCycles is %d",
				rn.name, got, b.TotalCycles)
		}
	}
}
