// Package experiments regenerates every figure of the paper's evaluation
// (ICDE 2023, §V): Figure 5 (projectivity sweep), Figures 6a/6b
// (projection×selection speedup heatmaps), and Figures 7a/7b (TPC-H Q1 and
// Q6 across data sizes), plus the ablation sweeps DESIGN.md calls out. Each
// experiment states its queries once, as SQL text, and runs them on a lab
// (lab.go). The same entry points back both the testing.B benchmarks and
// the rfbench CLI.
package experiments

import "rfabric/internal/engine"

// Options parameterizes a figure run. The zero value is not usable; start
// from DefaultOptions.
type Options struct {
	// System is the simulated platform.
	System engine.SystemConfig
	// Seed drives the deterministic data generators.
	Seed int64
	// MicroRows is the row count of the Figure 5/6 microbenchmark tables.
	MicroRows int
	// Fig7TargetMB lists the target-column sizes (in MiB) swept by the
	// Figure 7 experiments — the paper's x-axis.
	Fig7TargetMB []int
	// ParWorkers lists the coordinator worker-pool sizes swept by the
	// parallel-speedup experiment.
	ParWorkers []int
}

// DefaultOptions returns laptop-scale settings: tables several times the
// simulated L2 so the memory hierarchy is exercised, small enough that
// `go test -bench=.` stays fast. PaperScaleOptions widens the Figure 7
// sweep to the published sizes.
func DefaultOptions() Options {
	return Options{
		System:       engine.DefaultSystemConfig(),
		Seed:         1,
		MicroRows:    96_000, // 16 cols x 4 B = 6 MB base table
		Fig7TargetMB: []int{2, 4, 8, 16},
		ParWorkers:   []int{1, 2, 4, 8},
	}
}

// PaperScaleOptions mirrors the paper's full Figure 7 sweep (target columns
// 2–128 MiB, tables up to ≈700 MB). Expect multi-minute runs and several
// GB of resident memory.
func PaperScaleOptions() Options {
	o := DefaultOptions()
	o.MicroRows = 1 << 20
	o.Fig7TargetMB = []int{2, 4, 8, 16, 32, 64, 128}
	return o
}
