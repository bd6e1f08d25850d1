// Command rfbench regenerates the paper's evaluation figures and the
// repository's ablation studies at any scale.
//
// Usage:
//
//	rfbench [flags] <experiment>...
//	rfbench -serve :8080
//	rfbench -bench [-bench-name NAME] [<experiment>...]
//	rfbench -compare [-tolerance PCT] old.json new.json
//
// Experiments: fig5, fig6a, fig6b, fig7a, fig7b, par-speedup, join, sequence,
// abl-prefetch, abl-buffer, abl-clock, abl-banks, abl-mvcc, abl-pushdown,
// abl-index, abl-rmc, abl-compress, abl-storage, abl-offload, or "all".
//
// Flags:
//
//	-rows N         micro-benchmark rows for fig5/fig6 (default 96000)
//	-sizes list     comma-separated target-column MiB for fig7 (default 2,4,8,16)
//	-workers list   comma-separated worker-pool sizes for par-speedup
//	                (default 1,2,4,8)
//	-paper-scale    run fig7 at the paper's sizes (2..128 MiB targets,
//	                tables up to ~700 MB; needs several GB of RAM)
//	-seed N         generator seed (default 1)
//	-json           emit results as a JSON array instead of tables
//	-audit          replay the TPC-H statement set across all six engines and
//	                report estimated-vs-actual cycles, q-errors, and whether
//	                AUTO chose the path that actually won (-json for the
//	                machine-readable report; see EXPERIMENTS.md for its schema)
//	-serve addr     serve live observability over a demo TPC-H database:
//	                GET /metrics (Prometheus), /metrics.json,
//	                /debug/windows.json, /debug/trace/last,
//	                /debug/trace/last.chrome, /debug/statements,
//	                /debug/slowlog, /query?q=SQL
//	-slow-cycles N  modeled-cycle threshold arming -serve's slow-query log
//	                (default 10000000; 0 disables)
//	-bench          record the experiments (default: fig5, par-speedup) into
//	                BENCH_<name>.json for regression gating
//	-bench-name s   record name for -bench output (default tier1)
//	-compare        gate new.json against old.json; exits non-zero when any
//	                cycle metric grew past -tolerance percent
//	-tolerance T    percent cycle growth -compare tolerates (default 5)
//	-cpuprofile f   write a pprof CPU profile of the run to f
//	-memprofile f   write a pprof heap profile at exit to f
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"

	"rfabric/internal/experiments"
)

func main() {
	rows := flag.Int("rows", 96_000, "micro-benchmark rows for fig5/fig6")
	sizes := flag.String("sizes", "2,4,8,16", "comma-separated target-column MiB for fig7")
	workers := flag.String("workers", "1,2,4,8", "comma-separated worker-pool sizes for par-speedup")
	paperScale := flag.Bool("paper-scale", false, "run fig7 at the paper's 2..128 MiB targets")
	seed := flag.Int64("seed", 1, "generator seed")
	jsonOut := flag.Bool("json", false, "emit results as JSON instead of tables")
	serveAddr := flag.String("serve", "", "serve live metrics and traces on this address (e.g. :8080)")
	slowCycles := flag.Uint64("slow-cycles", 10_000_000, "modeled-cycle threshold arming -serve's slow-query log (0 disables)")
	audit := flag.Bool("audit", false, "replay the TPC-H statement set across all engines and report optimizer accuracy")
	benchOut := flag.Bool("bench", false, "record experiments into BENCH_<name>.json for regression gating")
	benchName := flag.String("bench-name", "tier1", "record name for -bench output")
	compare := flag.Bool("compare", false, "compare two BENCH_*.json records: rfbench -compare old.json new.json")
	tolerance := flag.Float64("tolerance", 5, "percent cycle growth -compare tolerates before failing")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatalf("memprofile: %v", err)
			}
			defer f.Close()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatalf("memprofile: %v", err)
			}
		}()
	}

	opt := experiments.DefaultOptions()
	opt.MicroRows = *rows
	opt.Seed = *seed
	if *paperScale {
		opt = experiments.PaperScaleOptions()
		opt.Seed = *seed
	} else if trimmed := strings.TrimSpace(*sizes); trimmed != "" {
		opt.Fig7TargetMB = nil
		for _, part := range strings.Split(trimmed, ",") {
			mb, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || mb <= 0 {
				fatalf("bad -sizes entry %q", part)
			}
			opt.Fig7TargetMB = append(opt.Fig7TargetMB, mb)
		}
	}

	if trimmed := strings.TrimSpace(*workers); trimmed != "" {
		opt.ParWorkers = nil
		for _, part := range strings.Split(trimmed, ",") {
			w, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || w <= 0 {
				fatalf("bad -workers entry %q", part)
			}
			opt.ParWorkers = append(opt.ParWorkers, w)
		}
	}

	if *serveAddr != "" {
		if err := serve(*serveAddr, *rows, *seed, *slowCycles); err != nil {
			fatalf("serve: %v", err)
		}
		return
	}

	if *audit {
		if err := runAudit(*rows, *seed, *jsonOut); err != nil {
			fatalf("audit: %v", err)
		}
		return
	}

	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare needs exactly two record files: rfbench -compare old.json new.json")
		}
		if err := runCompare(flag.Arg(0), flag.Arg(1), *tolerance); err != nil {
			fatalf("%v", err)
		}
		return
	}

	if *benchOut {
		if err := runBench(flag.Args(), opt, *benchName); err != nil {
			fatalf("bench: %v", err)
		}
		return
	}

	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if len(args) == 1 && args[0] == "all" {
		args = []string{"fig5", "fig6a", "fig6b", "fig7a", "fig7b", "par-speedup", "join", "sequence",
			"abl-prefetch", "abl-buffer", "abl-clock", "abl-banks",
			"abl-mvcc", "abl-pushdown", "abl-index", "abl-rmc", "abl-compress", "abl-storage",
			"abl-offload"}
	}

	if *jsonOut {
		runJSON(args, opt)
		return
	}
	for i, name := range args {
		if i > 0 {
			fmt.Println()
		}
		result, violations, err := runExperiment(name, opt)
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		result.(tableWriter).WriteTable(os.Stdout)
		if _, checked := result.(shapeChecker); checked {
			report(violations)
		}
	}
}

// tableWriter is the human-readable face every experiment result has.
type tableWriter interface{ WriteTable(w io.Writer) }

// shapeChecker verifies an experiment against the paper's qualitative
// claims; ablations without a claim to check don't implement it.
type shapeChecker interface{ CheckShape() []string }

// jsonEntry is one experiment's machine-readable record. Violations is
// empty (never null) for experiments whose shape held, and omitted is not
// an option — CI smoke tests key off the field being present.
type jsonEntry struct {
	Experiment string   `json:"experiment"`
	Result     any      `json:"result"`
	Violations []string `json:"violations"`
}

func runJSON(names []string, opt experiments.Options) {
	entries := make([]jsonEntry, 0, len(names))
	for _, name := range names {
		result, violations, err := runExperiment(name, opt)
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		if violations == nil {
			violations = []string{}
		}
		entries = append(entries, jsonEntry{Experiment: name, Result: result, Violations: violations})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(entries); err != nil {
		fatalf("encoding JSON: %v", err)
	}
}

// runExperiment executes one named experiment and returns its result plus
// any shape violations (nil when the experiment has no shape claims).
func runExperiment(name string, opt experiments.Options) (any, []string, error) {
	var result any
	var err error
	switch name {
	case "fig5":
		result, err = experiments.Figure5(opt)
	case "fig6a", "fig6b":
		result, err = experiments.Figure6(opt)
	case "fig7a":
		result, err = experiments.Figure7(opt, experiments.Q1)
	case "fig7b":
		result, err = experiments.Figure7(opt, experiments.Q6)
	case "par-speedup":
		result, err = experiments.ParallelSpeedup(opt, 8, opt.MicroRows, opt.ParWorkers)
	case "join":
		result, err = experiments.JoinQ3(opt, opt.MicroRows, opt.ParWorkers)
	case "sequence":
		result, err = experiments.Sequence(opt, opt.MicroRows, 8)
	case "abl-prefetch":
		result, err = experiments.AblationPrefetchStreams(opt, []int{1, 2, 4, 8, 16})
	case "abl-buffer":
		result, err = experiments.AblationFabricBuffer(opt, []int{64 << 10, 256 << 10, 1 << 20, 2 << 20, 8 << 20})
	case "abl-clock":
		result, err = experiments.AblationFabricClock(opt, []int{1, 5, 15, 30})
	case "abl-banks":
		result, err = experiments.AblationDRAMBanks(opt, []int{1, 2, 4, 8, 16})
	case "abl-mvcc":
		result, err = experiments.AblationMVCC(opt, opt.MicroRows/2)
	case "abl-pushdown":
		result, err = experiments.AblationPushdown(opt, opt.MicroRows/2)
	case "abl-index":
		result, err = experiments.AblationIndex(opt, opt.MicroRows)
	case "abl-rmc":
		result, err = experiments.AblationRMC(opt, opt.MicroRows/2)
	case "abl-compress":
		result, err = experiments.AblationCompression(opt, opt.MicroRows/4)
	case "abl-storage":
		result, err = experiments.AblationStorage(opt, opt.MicroRows/4)
	case "abl-offload":
		result, err = experiments.AblationOffload(opt, opt.MicroRows/2)
	default:
		return nil, nil, fmt.Errorf("unknown experiment (try fig5, fig6a, fig7a, fig7b, par-speedup, join, abl-*, or all)")
	}
	if err != nil {
		return nil, nil, err
	}
	if sc, ok := result.(shapeChecker); ok {
		return result, sc.CheckShape(), nil
	}
	return result, nil, nil
}

func report(violations []string) {
	if len(violations) == 0 {
		fmt.Println("  shape: OK (matches the paper's qualitative claims)")
		return
	}
	for _, v := range violations {
		fmt.Println("  shape VIOLATION: " + v)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rfbench: "+format+"\n", args...)
	os.Exit(1)
}
