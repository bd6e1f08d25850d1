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
//	-bench          record the experiments (default: fig5, par-speedup, join,
//	                sequence, abl-offload) into BENCH_<name>.json for
//	                regression gating
//	-bench-name s   record name for -bench output (default tier1)
//	-compare        gate new.json against old.json; exits non-zero when any
//	                cycle metric moved past -tolerance percent, either way
//	-tolerance T    percent cycle change -compare tolerates (default 5)
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
	run := newRunFlags(flag.CommandLine)
	jsonOut := flag.Bool("json", false, "emit results as JSON instead of tables")
	serveAddr := flag.String("serve", "", "serve live metrics and traces on this address (e.g. :8080)")
	slowCycles := flag.Uint64("slow-cycles", 10_000_000, "modeled-cycle threshold arming -serve's slow-query log (0 disables)")
	audit := flag.Bool("audit", false, "replay the TPC-H statement set across all engines and report optimizer accuracy")
	benchOut := flag.Bool("bench", false, "record experiments into BENCH_<name>.json for regression gating")
	benchName := flag.String("bench-name", "tier1", "record name for -bench output")
	compare := flag.Bool("compare", false, "compare two BENCH_*.json records: rfbench -compare old.json new.json")
	tolerance := flag.Float64("tolerance", 5, "percent cycle change, either way, -compare tolerates before failing")
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

	opt, err := run.options()
	if err != nil {
		fatalf("%v", err)
	}

	if *serveAddr != "" {
		if err := serve(*serveAddr, *run.rows, *run.seed, *slowCycles); err != nil {
			fatalf("serve: %v", err)
		}
		return
	}

	if *audit {
		if err := runAudit(*run.rows, *run.seed, *jsonOut); err != nil {
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
		args = allExperiments
	}

	if *jsonOut {
		runJSON(args, opt)
		return
	}
	if err := writeText(os.Stdout, args, opt); err != nil {
		fatalf("%v", err)
	}
}

// allExperiments is every experiment, in the order "all" runs them.
var allExperiments = []string{"fig5", "fig6a", "fig6b", "fig7a", "fig7b", "par-speedup", "join", "sequence",
	"abl-prefetch", "abl-buffer", "abl-clock", "abl-banks",
	"abl-mvcc", "abl-pushdown", "abl-index", "abl-rmc", "abl-compress", "abl-storage",
	"abl-offload"}

// runFlags are the flags that size and seed an experiment run.
type runFlags struct {
	rows       *int
	sizes      *string
	workers    *string
	paperScale *bool
	seed       *int64
}

func newRunFlags(fs *flag.FlagSet) *runFlags {
	return &runFlags{
		rows:       fs.Int("rows", 96_000, "micro-benchmark rows for fig5/fig6"),
		sizes:      fs.String("sizes", "2,4,8,16", "comma-separated target-column MiB for fig7"),
		workers:    fs.String("workers", "1,2,4,8", "comma-separated worker-pool sizes for par-speedup"),
		paperScale: fs.Bool("paper-scale", false, "run fig7 at the paper's 2..128 MiB targets"),
		seed:       fs.Int64("seed", 1, "generator seed"),
	}
}

// options turns the parsed flags into experiment options.
func (f *runFlags) options() (experiments.Options, error) {
	opt := experiments.DefaultOptions()
	opt.MicroRows = *f.rows
	if *f.paperScale {
		opt = experiments.PaperScaleOptions()
	} else if trimmed := strings.TrimSpace(*f.sizes); trimmed != "" {
		mb, err := positiveInts("sizes", trimmed)
		if err != nil {
			return opt, err
		}
		opt.Fig7TargetMB = mb
	}
	opt.Seed = *f.seed
	if trimmed := strings.TrimSpace(*f.workers); trimmed != "" {
		w, err := positiveInts("workers", trimmed)
		if err != nil {
			return opt, err
		}
		opt.ParWorkers = w
	}
	return opt, nil
}

// positiveInts parses a comma-separated list flag of positive integers.
func positiveInts(flagName, list string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -%s entry %q", flagName, part)
		}
		out = append(out, n)
	}
	return out, nil
}

// writeText runs the named experiments and writes each one's table, then
// its shape verdict when it checks one.
func writeText(w io.Writer, names []string, opt experiments.Options) error {
	for i, name := range names {
		if i > 0 {
			fmt.Fprintln(w)
		}
		result, violations, err := runExperiment(name, opt)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		tw, ok := result.(tableWriter)
		if !ok {
			return fmt.Errorf("%s: %T has no WriteTable(io.Writer)", name, result)
		}
		tw.WriteTable(w)
		if _, checked := result.(shapeChecker); checked {
			report(w, violations)
		}
	}
	return nil
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

func report(w io.Writer, violations []string) {
	if len(violations) == 0 {
		fmt.Fprintln(w, "  shape: OK (matches the paper's qualitative claims)")
		return
	}
	for _, v := range violations {
		fmt.Fprintln(w, "  shape VIOLATION: "+v)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rfbench: "+format+"\n", args...)
	os.Exit(1)
}
