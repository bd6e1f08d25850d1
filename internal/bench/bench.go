// Package bench records experiment results as flat metric maps and gates
// cycle changes between two records — the machinery behind
// `rfbench -bench` / `rfbench -compare` and the CI regression gate.
//
// A Record is deliberately schema-free: every numeric leaf of an
// experiment's JSON encoding becomes one metric under a dotted path
// ("fig5.points.3.cycles.RM"). New experiments and new result fields flow
// into the record without touching this package; the comparison gate keys
// off path substrings instead of struct shapes.
package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// Record is one benchmark run: identifying metadata plus the flattened
// numeric metrics of every experiment it covered. Records marshal to
// deterministic JSON (encoding/json sorts map keys), so same-seed runs of a
// deterministic model produce byte-identical files — which is what makes a
// committed baseline meaningful.
type Record struct {
	Name    string             `json:"name"`
	Rows    int                `json:"rows"`
	Seed    int64              `json:"seed"`
	Metrics map[string]float64 `json:"metrics"`
}

// NewRecord starts an empty record for a run at the given scale.
func NewRecord(name string, rows int, seed int64) *Record {
	return &Record{Name: name, Rows: rows, Seed: seed, Metrics: map[string]float64{}}
}

// AddResult flattens one experiment result into the record: the result is
// round-tripped through JSON and every numeric leaf lands under
// "<experiment>.<dotted.path>". Wall-clock fields (any path containing
// "wall") are skipped — they vary run to run and would dirty a committed
// baseline without measuring the model.
func (r *Record) AddResult(experiment string, result any) error {
	raw, err := json.Marshal(result)
	if err != nil {
		return fmt.Errorf("bench: marshal %s: %w", experiment, err)
	}
	var tree any
	if err := json.Unmarshal(raw, &tree); err != nil {
		return fmt.Errorf("bench: unmarshal %s: %w", experiment, err)
	}
	flatten(strings.ToLower(experiment), tree, r.Metrics)
	return nil
}

// flatten walks a decoded JSON tree in sorted-key order and writes numeric
// leaves into out under dotted paths. Strings, booleans, and nulls are not
// metrics and are dropped.
func flatten(prefix string, v any, out map[string]float64) {
	switch node := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(node))
		for k := range node {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			flatten(prefix+"."+strings.ToLower(k), node[k], out)
		}
	case []any:
		for i, elem := range node {
			flatten(fmt.Sprintf("%s.%d", prefix, i), elem, out)
		}
	case float64:
		if strings.Contains(prefix, "wall") {
			return
		}
		out[prefix] = node
	}
}

// Regression is one gated metric that moved further than the tolerance
// allows, in either direction, or an exactly gated metric that changed at
// all.
type Regression struct {
	Key     string  // dotted metric path
	Old     float64 // baseline value
	New     float64 // current value
	Percent float64 // relative change, e.g. 10.0 for +10%, -10.0 for -10%
	Exact   bool    // the metric is gated for exact equality
}

func (g Regression) String() string {
	switch {
	case g.New < 0:
		return fmt.Sprintf("%s: %.0f -> metric missing from current record", g.Key, g.Old)
	case g.Exact:
		return fmt.Sprintf("%s: %.0f -> %.0f (must not change)", g.Key, g.Old, g.New)
	}
	return fmt.Sprintf("%s: %.0f -> %.0f (%+.1f%%)", g.Key, g.Old, g.New, g.Percent)
}

// exactGated reports whether a metric is a logical outcome of the workload
// — bytes moved, rows, groups, a result checksum — rather than a cost. Any
// change to one means the run did different work, so it is gated for exact
// equality at every tolerance.
func exactGated(key string) bool {
	for _, w := range []string{"bytes", "rows", "groups", "checksum"} {
		if strings.Contains(key, w) {
			return true
		}
	}
	return false
}

// Compare gates cur against base. Every baseline metric whose path contains
// "cycles" must not have moved by more than tolerancePct percent either way
// (a drop the baseline does not record is a change to re-record, not a free
// pass; at tolerance 0 any change fails); every one
// whose path contains "bytes", "rows", "groups", or "checksum" must be
// exactly equal; both kinds must still exist. Other metrics (speedups,
// ratios) are carried for context but not gated. Records taken at
// different scales or seeds measure different workloads, so a Rows/Seed
// mismatch is an error, not a regression.
func Compare(base, cur *Record, tolerancePct float64) ([]Regression, error) {
	if base == nil || cur == nil {
		return nil, fmt.Errorf("bench: compare needs two records")
	}
	if base.Rows != cur.Rows || base.Seed != cur.Seed {
		return nil, fmt.Errorf("bench: records are not comparable: baseline rows=%d seed=%d vs current rows=%d seed=%d",
			base.Rows, base.Seed, cur.Rows, cur.Seed)
	}
	keys := make([]string, 0, len(base.Metrics))
	for k := range base.Metrics {
		if strings.Contains(k, "cycles") || exactGated(k) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var regs []Regression
	for _, k := range keys {
		old := base.Metrics[k]
		now, ok := cur.Metrics[k]
		if !ok {
			regs = append(regs, Regression{Key: k, Old: old, New: -1, Percent: 0})
			continue
		}
		if exactGated(k) {
			if now != old {
				var pct float64
				if old != 0 {
					pct = (now - old) / old * 100
				}
				regs = append(regs, Regression{Key: k, Old: old, New: now, Percent: pct, Exact: true})
			}
			continue
		}
		if old <= 0 {
			continue
		}
		change := (now - old) / old * 100
		if math.Abs(change) > tolerancePct {
			regs = append(regs, Regression{Key: k, Old: old, New: now, Percent: change})
		}
	}
	return regs, nil
}

// WriteFile writes the record as indented, key-sorted JSON.
func (r *Record) WriteFile(path string) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// ReadFile loads a record written by WriteFile.
func ReadFile(path string) (*Record, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Record
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &r, nil
}
