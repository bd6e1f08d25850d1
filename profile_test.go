package rfabric

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"testing"

	"rfabric/internal/obs"
	"rfabric/internal/sql"
	"rfabric/internal/tpch"
)

// Tests for the profiling surface: the Chrome-trace export of a traced query
// must be valid JSON whose root event reconciles exactly with the modeled
// Breakdown, and the sampled timeline must be deterministic — same query,
// same seed, byte-identical artifact — including under PAR at a fixed
// worker count.

const profileRows = 4000

func tracedDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(DefaultConfig())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	tbl, err := db.CreateTable("lineitem", tpch.LineitemSchema(), profileRows)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := tpch.Generate(tbl, profileRows, 1); err != nil {
		t.Fatalf("generate: %v", err)
	}
	return db
}

// q6 compiles TPC-H Q6 for the tests that drive Execute/ExecuteTraced.
func q6(t testing.TB) Query {
	t.Helper()
	q, err := sql.Compile(tpch.Q6SQL, tpch.LineitemSchema())
	if err != nil {
		t.Fatalf("compile Q6: %v", err)
	}
	return q
}

// chromeDoc is the subset of the Chrome Trace Event Format the assertions
// read back.
type chromeDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   uint64         `json:"ts"`
		Dur  uint64         `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData"`
}

func TestTracedQ6ChromeExportReconciles(t *testing.T) {
	db := tracedDB(t)
	res, trace, err := db.ExecuteTraced(RM, "lineitem", q6(t), WithTimeline(0))
	if err != nil {
		t.Fatalf("traced Q6: %v", err)
	}

	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome export has no events")
	}

	// The root complete event spans the whole query: its duration is the
	// reconciliation claim — exactly Breakdown.TotalCycles.
	var rootDur uint64
	var found bool
	var counters, completes int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			completes++
			if ev.Name == "query" && !found {
				found = true
				rootDur = ev.Dur
				if ev.Ts != 0 {
					t.Errorf("root event starts at ts=%d, want 0", ev.Ts)
				}
			}
			if ev.Ts+ev.Dur > res.Breakdown.TotalCycles {
				t.Errorf("event %q [%d, %d] overruns total %d",
					ev.Name, ev.Ts, ev.Ts+ev.Dur, res.Breakdown.TotalCycles)
			}
		case "C":
			counters++
		}
	}
	if !found {
		t.Fatal("no root \"query\" complete event in chrome export")
	}
	if rootDur != res.Breakdown.TotalCycles {
		t.Errorf("root event dur=%d, want Breakdown.TotalCycles=%d", rootDur, res.Breakdown.TotalCycles)
	}
	if completes < 3 {
		t.Errorf("only %d complete events; expected parse/plan/execute children", completes)
	}
	if counters == 0 {
		t.Error("WithTimeline produced no counter events")
	}
	if tc, ok := doc.OtherData["total_cycles"].(float64); !ok || uint64(tc) != res.Breakdown.TotalCycles {
		t.Errorf("otherData.total_cycles = %v, want %d", doc.OtherData["total_cycles"], res.Breakdown.TotalCycles)
	}

	// The timeline itself covered the run: samples exist and the last one
	// ends at the total.
	if trace.Timeline == nil {
		t.Fatal("trace has no timeline")
	}
	samples := trace.Timeline.Samples()
	if len(samples) == 0 {
		t.Fatal("timeline has no samples")
	}
	if last := samples[len(samples)-1]; last.Cycle != res.Breakdown.TotalCycles {
		t.Errorf("last sample at cycle %d, want %d", last.Cycle, res.Breakdown.TotalCycles)
	}
}

// chromeAndTimelineJSON renders both artifacts of one traced run.
func chromeAndTimelineJSON(t *testing.T, db *DB, kind EngineKind) (chrome, timeline []byte) {
	t.Helper()
	_, trace, err := db.ExecuteTraced(kind, "lineitem", q6(t), WithTimeline(0))
	if err != nil {
		t.Fatalf("traced Q6 on %s: %v", kind, err)
	}
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	tl, err := json.Marshal(trace.Timeline)
	if err != nil {
		t.Fatalf("marshal timeline: %v", err)
	}
	return buf.Bytes(), tl
}

func TestTimelineDeterminism(t *testing.T) {
	for _, kind := range []EngineKind{RM, ROW, PAR} {
		t.Run(string(kind), func(t *testing.T) {
			mk := func() *DB {
				db := tracedDB(t)
				if kind == PAR {
					// A fixed pool keeps the schedule — and so the worker
					// lanes of the export — independent of the host.
					db.SetParallel(ParallelConfig{Workers: 4, MorselRows: 512})
				}
				return db
			}
			c1, tl1 := chromeAndTimelineJSON(t, mk(), kind)
			c2, tl2 := chromeAndTimelineJSON(t, mk(), kind)
			if !bytes.Equal(tl1, tl2) {
				t.Errorf("timeline JSON differs across identical runs:\n%s\nvs\n%s", tl1, tl2)
			}
			if !bytes.Equal(c1, c2) {
				t.Error("chrome trace JSON differs across identical runs")
			}
		})
	}
}

// TestParTimelineHasWorkerLanes checks that a PAR run's export resolves
// per-worker activity: worker slices on the timeline and morsel events on
// per-worker chrome lanes.
func TestParTimelineHasWorkerLanes(t *testing.T) {
	db := tracedDB(t)
	db.SetParallel(ParallelConfig{Workers: 4, MorselRows: 512})
	_, trace, err := db.ExecuteTraced(PAR, "lineitem", q6(t), WithTimeline(0))
	if err != nil {
		t.Fatalf("traced PAR Q6: %v", err)
	}
	slices := trace.Timeline.WorkerSlices()
	if len(slices) == 0 {
		t.Fatal("PAR timeline recorded no worker slices")
	}
	workers := map[int]bool{}
	for _, s := range slices {
		workers[s.Worker] = true
	}
	if len(workers) < 2 {
		t.Errorf("morsels landed on %d worker(s), want ≥2 with 4 workers", len(workers))
	}

	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export: %v", err)
	}
	lanes := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Tid >= 10 {
			lanes[ev.Tid] = true
		}
	}
	if len(lanes) < 2 {
		t.Errorf("chrome export has %d worker lanes, want ≥2", len(lanes))
	}
}

// TestQuantileAccuracy feeds a known distribution through the bucketed
// histogram and checks the interpolated quantiles against the exact
// percentiles: with powers-of-4 buckets the estimate must land within one
// bucket's span of the truth.
func TestQuantileAccuracy(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("rfabric_test_latency", nil)
	var vals []float64
	// A deterministic skewed distribution spanning several buckets.
	x := uint64(12345)
	for i := 0; i < 5000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		v := float64(300 + x%200_000)
		vals = append(vals, v)
		h.Observe(v)
	}
	sort.Float64s(vals)

	for _, q := range []float64{0.50, 0.95, 0.99} {
		exact := vals[int(q*float64(len(vals)-1))]
		est := h.Quantile(q)
		// The estimate can only be off within the bucket holding the exact
		// value; powers-of-4 bounds mean that bucket spans [b, 4b).
		if est < exact/4 || est > exact*4 {
			t.Errorf("q=%.2f: estimate %.0f not within the bucket of exact %.0f", q, est, exact)
		}
		if math.IsNaN(est) || est <= 0 {
			t.Errorf("q=%.2f: degenerate estimate %v", q, est)
		}
	}

	// Monotonicity across quantiles.
	if !(h.Quantile(0.5) <= h.Quantile(0.95) && h.Quantile(0.95) <= h.Quantile(0.99)) {
		t.Error("quantile estimates not monotone")
	}

	// Edge cases: empty histogram and out-of-range q.
	empty := reg.Histogram("rfabric_test_empty", nil)
	if v := empty.Quantile(0.99); v != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", v)
	}
	if v := h.Quantile(1.5); v < h.Quantile(0.99) {
		t.Errorf("clamped q>1 returned %v, below p99", v)
	}
}

// TestDisabledObserverMatchesNilObserver pins the query hot path: running
// with a disabled registry and disabled windows attached must not allocate
// more than running with no observability at all. Both configurations always
// execute — so the race build still covers the gated code paths — and only
// the allocation comparison is withheld under -race, whose instrumentation
// perturbs AllocsPerRun.
//
// Each fixture is warmed first, so lazily built state is not measured. The
// two are then measured in alternating rounds of many queries each, and a
// configuration's figure is its lowest round: a background allocation (a
// GC cycle's buffers, another goroutine) can only add to a round, never
// remove from it, so the minimum is the query's own integer cost.
func TestDisabledObserverMatchesNilObserver(t *testing.T) {
	q := q6(t)
	query := func(db *DB) func() {
		return func() {
			if _, err := db.Execute(RM, "lineitem", q); err != nil {
				t.Fatalf("Q6: %v", err)
			}
		}
	}
	bare := tracedDB(t)
	observed := tracedDB(t)
	reg := obs.NewRegistry()
	reg.SetDisabled(true)
	observed.SetObserver(reg)
	win := obs.NewWindows(10)
	win.SetDisabled(true)
	observed.SetWindows(win)

	runBare, runObserved := query(bare), query(observed)
	for i := 0; i < 5; i++ {
		runBare()
		runObserved()
	}
	nilAllocs, disabledAllocs := math.Inf(1), math.Inf(1)
	for round := 0; round < 5; round++ {
		nilAllocs = math.Min(nilAllocs, testing.AllocsPerRun(20, runBare))
		disabledAllocs = math.Min(disabledAllocs, testing.AllocsPerRun(20, runObserved))
	}

	if raceEnabled {
		t.Logf("race build: paths exercised, alloc comparison skipped (nil=%.0f disabled=%.0f)",
			nilAllocs, disabledAllocs)
		return
	}
	if int64(disabledAllocs) > int64(nilAllocs) {
		t.Errorf("disabled observability costs %.0f allocs/query vs %.0f with none", disabledAllocs, nilAllocs)
	}
	if got := win.Snapshot(0).Queries; got != 0 {
		t.Errorf("disabled windows recorded %d queries, want 0", got)
	}
}

// TestObservedQueryAllocBudget bounds what the observability sinks cost a
// query: with a registry, windows, and a statement store attached, a
// QueryOn(RM) may allocate at most 64 more times than with none. Publishing
// to existing series renders the event's labels once and allocates nothing
// per series. Measured like TestDisabledObserverMatchesNilObserver (warm
// fixtures, lowest of alternating rounds); the comparison is withheld under
// -race.
func TestObservedQueryAllocBudget(t *testing.T) {
	const text = `SELECT l_returnflag, COUNT(*), SUM(l_quantity) FROM lineitem WHERE l_quantity < 30 GROUP BY l_returnflag`
	query := func(db *DB) func() {
		return func() {
			if _, err := db.QueryOn(RM, text); err != nil {
				t.Fatalf("query: %v", err)
			}
		}
	}
	bare := tracedDB(t)
	observed := tracedDB(t)
	observed.SetObserver(obs.NewRegistry())
	observed.SetWindows(obs.NewWindows(10))
	observed.SetStatements(obs.NewStatStore())

	runBare, runObserved := query(bare), query(observed)
	for i := 0; i < 5; i++ {
		runBare()
		runObserved()
	}
	bareAllocs, observedAllocs := math.Inf(1), math.Inf(1)
	for round := 0; round < 5; round++ {
		bareAllocs = math.Min(bareAllocs, testing.AllocsPerRun(20, runBare))
		observedAllocs = math.Min(observedAllocs, testing.AllocsPerRun(20, runObserved))
	}
	t.Logf("allocs per query: bare %.0f, observed %.0f", bareAllocs, observedAllocs)
	if raceEnabled {
		return
	}
	if extra := observedAllocs - bareAllocs; extra > 64 {
		t.Errorf("observability costs %.0f allocs per query (bare %.0f, observed %.0f), want <= 64",
			extra, bareAllocs, observedAllocs)
	}
}
