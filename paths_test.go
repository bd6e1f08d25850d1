package rfabric

import (
	"bytes"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"rfabric/internal/tpch"
)

// TestFacadePathParity runs one single-table statement and one join through
// every façade entry point that accepts it, each on a fresh database with a
// metrics registry, sliding windows, and a statement store attached. Every
// path must return the same Result (TotalCycles included), publish the same
// rfabric_* series, and record exactly one window sample and exactly one
// statement-store call.
func TestFacadePathParity(t *testing.T) {
	const single = `SELECT l_returnflag, SUM(l_quantity), COUNT(*) FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' GROUP BY l_returnflag`

	type path struct {
		name string
		run  func(db *DB) (*Result, error)
	}
	queryOn := func(text string) path {
		return path{"QueryOn", func(db *DB) (*Result, error) { return db.QueryOn(RM, text) }}
	}
	queryTraced := func(text string) path {
		return path{"QueryTraced", func(db *DB) (*Result, error) {
			res, _, err := db.QueryTraced(text, OnEngine(RM))
			return res, err
		}}
	}
	cases := []struct {
		name  string
		paths []path
	}{
		{"single-table", []path{
			queryOn(single),
			queryTraced(single),
			{"Prepared.Run", func(db *DB) (*Result, error) {
				p, err := db.Prepare(single)
				if err != nil {
					return nil, err
				}
				return p.Run(RM)
			}},
		}},
		{"join", []path{queryOn(tpch.Q3SQL), queryTraced(tpch.Q3SQL)}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ref *Result
			var refSeries []string
			for _, p := range tc.paths {
				db := tpchDB(t, 1500)
				reg, win, stats := NewRegistry(), NewWindows(60), NewStatStore()
				db.SetObserver(reg)
				db.SetWindows(win)
				db.SetStatements(stats)
				res, err := p.run(db)
				if err != nil {
					t.Fatalf("%s: %v", p.name, err)
				}
				series := seriesKeys(t, reg)
				if ref == nil {
					ref, refSeries = res, series
					// The table label is the probe (or only) table.
					if want := `rfabric_queries_total{engine="RM",table="lineitem"}`; !slices.Contains(series, want) {
						t.Errorf("%s did not publish %s: %v", p.name, want, series)
					}
				} else {
					if !reflect.DeepEqual(res, ref) {
						t.Errorf("%s result differs from %s:\n got %+v\nwant %+v", p.name, tc.paths[0].name, res, ref)
					}
					if !reflect.DeepEqual(series, refSeries) {
						t.Errorf("%s published series %v, %s published %v", p.name, series, tc.paths[0].name, refSeries)
					}
				}
				if n := win.Snapshot(60).Queries; n != 1 {
					t.Errorf("%s: %d window samples, want 1", p.name, n)
				}
				var calls uint64
				for _, r := range stats.Snapshot() {
					calls += r.Calls
				}
				if calls != 1 {
					t.Errorf("%s: %d statement-store calls, want 1", p.name, calls)
				}
				// One event, one bracket: every sink reads the same
				// allocation delta.
				if len(stats.Snapshot()) == 1 {
					rec := stats.Snapshot()[0]
					if got := win.Snapshot(60).MeanAllocBytes; got != rec.MeanAlloc {
						t.Errorf("%s: windows mean alloc %g != statement mean alloc %g", p.name, got, rec.MeanAlloc)
					}
					if p.name == "QueryTraced" {
						if tr := db.LastTrace(); tr == nil || float64(tr.AllocBytes) != rec.MeanAlloc {
							t.Errorf("%s: trace alloc bytes differ from statement mean alloc %g", p.name, rec.MeanAlloc)
						}
					}
				}
			}
		})
	}
}

// TestParseFailureReportsOneEvent: a statement that fails to compile still
// reports exactly one event, which every sink records as one error.
func TestParseFailureReportsOneEvent(t *testing.T) {
	db := tpchDB(t, 500)
	reg, win, stats := NewRegistry(), NewWindows(60), NewStatStore()
	db.SetObserver(reg)
	db.SetWindows(win)
	db.SetStatements(stats)
	if _, err := db.Query("SELEC l_quantity FROM lineitem"); err == nil {
		t.Fatal("malformed statement compiled")
	}
	if snap := win.Snapshot(60); snap.Queries != 1 || snap.Errors != 1 {
		t.Errorf("windows queries/errors = %d/%d, want 1/1", snap.Queries, snap.Errors)
	}
	recs := stats.Snapshot()
	if len(recs) != 1 || recs[0].Calls != 1 || recs[0].Errors != 1 {
		t.Errorf("statement store = %+v, want one call, one error", recs)
	}
	if got := reg.Counter("rfabric_query_errors_total", Labels{"engine": "RM", "table": ""}).Value(); got != 1 {
		t.Errorf("rfabric_query_errors_total = %d, want 1", got)
	}
}

// TestParHardwareCountersPublished: a PAR statement's morsels run on private
// System clones, and their DRAM, cache, and fabric counters reach the
// registry through the statement's event — the fabric scans as many rows as
// the serial RM run, and DRAM bytes move.
func TestParHardwareCountersPublished(t *testing.T) {
	const scan = `SELECT SUM(l_quantity) FROM lineitem WHERE l_quantity < 24`
	for _, text := range []string{scan, tpch.Q3SQL} {
		counters := map[EngineKind]*Registry{}
		for _, kind := range []EngineKind{RM, PAR} {
			db := tpchDB(t, 3000)
			if kind == PAR {
				db.SetParallel(ParallelConfig{Workers: 2, MorselRows: 1000})
			}
			reg := NewRegistry()
			db.SetObserver(reg)
			if _, err := db.QueryOn(kind, text); err != nil {
				t.Fatalf("%s on %s: %v", text, kind, err)
			}
			counters[kind] = reg
		}
		value := func(kind EngineKind, name string) uint64 {
			return counters[kind].Counter(name, Labels{"engine": string(kind), "table": "lineitem"}).Value()
		}
		rm, par := value(RM, "rfabric_fabric_rows_scanned_total"), value(PAR, "rfabric_fabric_rows_scanned_total")
		if rm == 0 || par != rm {
			t.Errorf("%s: PAR fabric rows scanned = %d, RM = %d; want equal and nonzero", text, par, rm)
		}
		if got := value(PAR, "rfabric_dram_bytes_read_total"); got == 0 {
			t.Errorf("%s: PAR published no DRAM bytes", text)
		}
		if got := value(PAR, "rfabric_cache_loads_total"); got == 0 {
			t.Errorf("%s: PAR published no cache loads", text)
		}
		if got := counters[PAR].Counter("rfabric_par_morsels_total", Labels{"table": "lineitem"}).Value(); got != 3 {
			t.Errorf("%s: rfabric_par_morsels_total = %d, want 3", text, got)
		}
	}
}

// seriesKeys returns the sorted name{labels} keys of every rfabric_* series
// in the registry's Prometheus exposition, histogram buckets folded into
// their series.
func seriesKeys(t *testing.T, reg *Registry) []string {
	t.Helper()
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(b.String(), "\n") {
		if !strings.HasPrefix(line, "rfabric_") {
			continue
		}
		key := line[:strings.LastIndexByte(line, ' ')]
		if strings.Contains(key, "_bucket{") {
			continue
		}
		seen[key] = true
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
