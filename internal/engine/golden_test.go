package engine

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rfabric/internal/obs"
	"rfabric/internal/table"
)

var updateGoldens = flag.Bool("update", false, "rewrite the execution goldens under testdata")

// The execution goldens pin the batch pipeline's modeled output to a fixed
// specification: the output the row-at-a-time interpreter recorded on every
// input the suites run, before that interpreter was removed. Each suite
// keeps one file, testdata/<suite>.golden, with one entry per subtest. An
// entry states each run's headline figures in clear text — engine, rows
// scanned and passed, checksum, CacheWarm, Offload, group count, the full
// Breakdown, and the hierarchy, DRAM and fabric counters after the run —
// and ends with the SHA-256 of the canonical JSON of everything else the
// suite compares: the full Result (floats by their bits) and, where the
// suite records them, the span tree and the timeline. The canonical form
// holds modeled fields only. `go test ./internal/engine -run <suite>
// -update` rewrites the entries the run reaches.

// goldenRun is one execution an entry records.
type goldenRun struct {
	name string
	twinRun
	hw HWStats // the run's system counters afterwards
}

// goldenFile is one suite's entries by key.
type goldenFile struct {
	path    string
	entries map[string]string
	written map[string]bool // keys rewritten by this -update run
}

const goldenHeader = `# Execution goldens: one entry per subtest ("== key"), one run per line pair:
#   name: engine scanned passed checksum warm offload groups
#     breakdown={Compute MemDemand Producer BytesFromDRAM BytesToCPU Pipeline Total}
#     hier={Loads L1Hits L2Hits PrefetchHits DRAMFills OverlappedMisses PrefetchIssued FabricFills Cycles BytesFromDRAM}
#     dram={Accesses RowHits RowMisses BytesRead GatherBytes Cycles BatchCycles BatchedReqs BatchesTotal}
#     fabric={RowsScanned RowsShipped BytesShipped LinesShipped BytesGathered GatherCycles ComputeCycles Chunks Aggregates RowsSemiFiltered RowsCodeFiltered EntriesDecoded}
# and the SHA-256 of the canonical JSON of the full results, span trees and timelines.
# Regenerate with: go test ./internal/engine -run <suite> -update
`

// openGoldens loads a suite's golden file; under -update it saves the
// rewritten entries when the test ends.
func openGoldens(t *testing.T, suite string) *goldenFile {
	t.Helper()
	g := &goldenFile{path: filepath.Join("testdata", suite+".golden"), entries: map[string]string{}, written: map[string]bool{}}
	data, err := os.ReadFile(g.path)
	switch {
	case err == nil:
		for _, block := range strings.Split(string(data), "\n== ")[1:] {
			key, body, _ := strings.Cut(block, "\n")
			g.entries[key] = body
		}
	case !os.IsNotExist(err) || !*updateGoldens:
		t.Fatalf("%v; run with -update", err)
	}
	if *updateGoldens {
		t.Cleanup(func() { g.save(t) })
	}
	return g
}

func (g *goldenFile) save(t *testing.T) {
	keys := make([]string, 0, len(g.entries))
	for k := range g.entries {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var b strings.Builder
	b.WriteString(goldenHeader)
	for _, k := range keys {
		fmt.Fprintf(&b, "\n== %s\n%s", k, g.entries[k])
	}
	if err := os.MkdirAll(filepath.Dir(g.path), 0o755); err != nil {
		t.Error(err)
		return
	}
	if err := os.WriteFile(g.path, []byte(b.String()), 0o644); err != nil {
		t.Error(err)
	}
}

// check compares runs with the entry at key. Under -update the first check
// of a key rewrites its entry and later checks compare against it.
func (g *goldenFile) check(t *testing.T, key string, runs ...goldenRun) {
	t.Helper()
	got := goldenEntry(t, runs)
	if *updateGoldens && !g.written[key] {
		g.entries[key], g.written[key] = got, true
		return
	}
	want, ok := g.entries[key]
	if !ok {
		t.Fatalf("%s: no entry %q; run with -update", g.path, key)
	}
	if got != want {
		t.Fatalf("%s: entry %q differs\ngot:\n%swant:\n%s", g.path, key, got, want)
	}
}

// subtestKey is t's name below its top-level test.
func subtestKey(t *testing.T) string {
	_, key, _ := strings.Cut(t.Name(), "/")
	return key
}

// goldenEntry renders runs as an entry body.
func goldenEntry(t *testing.T, runs []goldenRun) string {
	t.Helper()
	var b strings.Builder
	canon := make([]canonRun, len(runs))
	for i, r := range runs {
		res := r.res
		fmt.Fprintf(&b, "%s: engine=%s scanned=%d passed=%d checksum=%#x warm=%t offload=%q groups=%d\n",
			r.name, res.Engine, res.RowsScanned, res.RowsPassed, res.Checksum, res.CacheWarm, res.Offload, len(res.Groups))
		fmt.Fprintf(&b, "  breakdown=%v hier=%v dram=%v fabric=%v\n", res.Breakdown, r.hw.Hier, r.hw.Mem, r.hw.Fab)
		canon[i] = canonRun{Name: r.name, Result: canonResult(res), Spans: r.spans, Timeline: r.timeline}
	}
	fmt.Fprintf(&b, "sha256=%x\n", sha256.Sum256([]byte(mustJSON(t, canon))))
	return b.String()
}

// canonRun is a run's canonical form: its full Result, and the JSON of its
// canonical span tree and of its timeline ("" when not recorded).
type canonRun struct {
	Name     string
	Result   canonRes
	Spans    string
	Timeline string
}

type canonRes struct {
	Engine                  string
	RowsScanned, RowsPassed int64
	Checksum                uint64
	Aggs                    []canonValue
	Groups                  []canonGroup
	Breakdown               Breakdown
	CacheWarm               bool
	Offload                 string
	Morsels                 int
	MorselHW                HWStats
	Sunk                    int
}

type canonGroup struct {
	Key, Aggs []canonValue
	Count     int64
}

// canonValue is a value with its float written by its bits.
type canonValue struct {
	Type  int
	Int   int64
	Float uint64
	Bytes []byte
}

func canonValues(vs []table.Value) []canonValue {
	out := make([]canonValue, len(vs))
	for i, v := range vs {
		out[i] = canonValue{Type: int(v.Type), Int: v.Int, Float: math.Float64bits(v.Float), Bytes: v.Bytes}
	}
	return out
}

func canonResult(r *Result) canonRes {
	c := canonRes{
		Engine: r.Engine, RowsScanned: r.RowsScanned, RowsPassed: r.RowsPassed, Checksum: r.Checksum,
		Aggs: canonValues(r.Aggs), Breakdown: r.Breakdown, CacheWarm: r.CacheWarm, Offload: r.Offload,
		Morsels: r.Morsels, MorselHW: r.MorselHW, Sunk: r.sunk,
	}
	for _, g := range r.Groups {
		c.Groups = append(c.Groups, canonGroup{Key: canonValues(g.Key), Aggs: canonValues(g.Aggs), Count: g.Count})
	}
	return c
}

// canonSpan is a span's modeled fields.
type canonSpan struct {
	Name     string
	Cycles   uint64
	Bytes    uint64
	Detail   bool
	Attrs    []obs.Attr
	Children []canonSpan
}

func canonSpans(s *obs.Span) canonSpan {
	c := canonSpan{Name: s.Name, Cycles: s.Cycles, Bytes: s.Bytes, Detail: s.Detail, Attrs: s.Attrs}
	for _, ch := range s.Children {
		c.Children = append(c.Children, canonSpans(ch))
	}
	return c
}

// spansJSON is the canonical JSON of tr's span tree.
func spansJSON(t *testing.T, tr *obs.Tracer) string {
	t.Helper()
	return mustJSON(t, canonSpans(tr.Root()))
}
