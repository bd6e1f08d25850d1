// Command hostbench is the host-time benchmark of the rfabric SQL façade:
// SQL text → Result through the public DB API, with the observability
// rfbench -serve attaches, on seeded scan, join and warm-write workloads.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash hostbench/run.sh --workload scan --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 replays the same op
// sequence layer by layer and reports the per-layer metrics. The last line
// of standard output is one JSON object with the keys correct, attempted,
// failed and metrics. Any failed or wrong operation makes the exit code 1.
// See README.md for the metrics, the workloads and the recorded numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one run's result: the JSON metrics, the human-readable notes
// printed above them, and the operation tally.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	notes             []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

// put records a metric of the JSON line.
func (o *outcome) put(name, unit string, v float64) { o.metrics[name] = metric{Value: v, Unit: unit} }

// note records a line printed above the JSON only.
func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// fail counts a failed op; the first few are described on stderr.
func (o *outcome) fail(op *op, err error) {
	o.failed++
	if o.failed <= 5 {
		fmt.Fprintf(os.Stderr, "hostbench: op %d (%s %q): %v\n", op.id, op.kind, op.text, err)
	}
}

func main() {
	name := flag.String("workload", "", "workload: scan, join or warm-write")
	seed := flag.Int64("seed", 1, "seed of the generated data and statement literals")
	seconds := flag.Float64("seconds", 10, "measured time per run, in seconds")
	trace := flag.Int("trace", 0, "1: traced per-layer run; 0: end-to-end run")
	out := flag.String("out", ".bench_build", "directory for the CPU profile and the span dump")
	flag.Parse()

	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(2)
	}
	var res *outcome
	if *trace == 1 {
		res, err = runTraced(w, *seconds, *out)
	} else {
		res, err = runEndToEnd(w, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}

	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.metrics[n]
		fmt.Printf("%-36s %16.6g %s\n", n, m.Value, m.Unit)
	}
	for _, line := range res.notes {
		fmt.Println(line)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, res.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if res.failed > 0 {
		os.Exit(1)
	}
}
