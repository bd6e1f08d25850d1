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
// rfabric_* series, and record exactly one window sample. SQL entry points
// record exactly one statement-store call; Execute carries no SQL text, so
// it records none.
func TestFacadePathParity(t *testing.T) {
	const single = `SELECT l_returnflag, SUM(l_quantity), COUNT(*) FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' GROUP BY l_returnflag`

	type path struct {
		name string
		sql  bool // records into the statement store
		run  func(db *DB) (*Result, error)
	}
	queryOn := func(text string) path {
		return path{"QueryOn", true, func(db *DB) (*Result, error) { return db.QueryOn(RM, text) }}
	}
	queryTraced := func(text string) path {
		return path{"QueryTraced", true, func(db *DB) (*Result, error) {
			res, _, err := db.QueryTraced(text, OnEngine(RM))
			return res, err
		}}
	}
	compiled := func(db *DB) (Query, error) {
		li, err := db.Table("lineitem")
		if err != nil {
			return Query{}, err
		}
		return CompileSQL(single, li.Schema())
	}
	cases := []struct {
		name  string
		paths []path
	}{
		{"single-table", []path{
			queryOn(single),
			queryTraced(single),
			{"Prepared.Run", true, func(db *DB) (*Result, error) {
				p, err := db.Prepare(single)
				if err != nil {
					return nil, err
				}
				return p.Run(RM)
			}},
			{"Execute", false, func(db *DB) (*Result, error) {
				q, err := compiled(db)
				if err != nil {
					return nil, err
				}
				return db.Execute(RM, "lineitem", q)
			}},
			{"ExecuteTraced", false, func(db *DB) (*Result, error) {
				q, err := compiled(db)
				if err != nil {
					return nil, err
				}
				res, _, err := db.ExecuteTraced(RM, "lineitem", q)
				return res, err
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
				if want := map[bool]uint64{true: 1, false: 0}[p.sql]; calls != want {
					t.Errorf("%s: %d statement-store calls, want %d", p.name, calls, want)
				}
			}
		})
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
