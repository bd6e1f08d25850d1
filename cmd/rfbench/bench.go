package main

import (
	"fmt"
	"os"

	"rfabric/internal/bench"
	"rfabric/internal/experiments"
)

// defaultBenchSet is the tier-1 experiment set the CI regression gate runs:
// the projectivity sweep (the paper's headline figure), the parallel
// makespan sweep, the Q3-class hash join, the sequence-aware caching run,
// and the operator-offload ablation, which together cover all three
// engines, the morsel/shard coordinator, the join pipeline, the persistent
// group cache's warm/cold contract, and the offload layer's bytes-moved and
// cycle reductions.
var defaultBenchSet = []string{"fig5", "par-speedup", "join", "sequence", "abl-offload"}

// runBench executes the named experiments (the tier-1 set when none are
// given), flattens every numeric result leaf into a bench.Record, and writes
// BENCH_<name>.json in the current directory for `rfbench -compare` and the
// CI artifact archive.
func runBench(names []string, opt experiments.Options, benchName string) error {
	if len(names) == 0 {
		names = defaultBenchSet
	}
	rec := bench.NewRecord(benchName, opt.MicroRows, opt.Seed)
	for _, name := range names {
		result, _, err := runExperiment(name, opt)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := rec.AddResult(name, result); err != nil {
			return err
		}
	}
	path := "BENCH_" + benchName + ".json"
	if err := rec.WriteFile(path); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d metrics from %d experiments (rows=%d seed=%d)\n",
		path, len(rec.Metrics), len(names), rec.Rows, rec.Seed)
	return nil
}

// runCompare loads two BENCH_*.json records and exits non-zero when any
// cycle metric regressed past tolerancePct or any bytes/rows/groups/checksum
// metric changed — the CI gate.
func runCompare(oldPath, newPath string, tolerancePct float64) error {
	base, err := bench.ReadFile(oldPath)
	if err != nil {
		return err
	}
	cur, err := bench.ReadFile(newPath)
	if err != nil {
		return err
	}
	regs, err := bench.Compare(base, cur, tolerancePct)
	if err != nil {
		return err
	}
	if len(regs) == 0 {
		fmt.Printf("compare: OK — no cycle metric moved more than %.1f%%, no bytes/rows/groups/checksum metric changed (%s vs %s)\n",
			tolerancePct, oldPath, newPath)
		return nil
	}
	fmt.Fprintf(os.Stderr, "compare: %d regression(s) (cycles beyond %.1f%%, or changed bytes/rows/groups/checksums):\n", len(regs), tolerancePct)
	for _, g := range regs {
		fmt.Fprintf(os.Stderr, "  %s\n", g)
	}
	return fmt.Errorf("benchmark regression gate failed")
}
