package bench

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// fakeResult mimics an experiment result shape: nested structs, a slice of
// points, per-engine maps, plus fields that must NOT become gated metrics.
type fakeResult struct {
	Rows   int
	Label  string // string leaf: dropped
	Points []fakePoint
}

type fakePoint struct {
	Projectivity int
	Cycles       map[string]uint64
	WallNanos    int64 // wall-clock: skipped by flatten
	Speedup      float64
}

func fake(rmCycles uint64) fakeResult {
	return fakeResult{
		Rows:  8000,
		Label: "demo",
		Points: []fakePoint{
			{Projectivity: 1, Cycles: map[string]uint64{"ROW": 5000, "RM": rmCycles}, WallNanos: 123456, Speedup: 1.0},
			{Projectivity: 2, Cycles: map[string]uint64{"ROW": 9000, "RM": 2 * rmCycles}, WallNanos: 654321, Speedup: 1.5},
		},
	}
}

func record(t *testing.T, rmCycles uint64) *Record {
	t.Helper()
	r := NewRecord("test", 8000, 1)
	if err := r.AddResult("fig5", fake(rmCycles)); err != nil {
		t.Fatalf("AddResult: %v", err)
	}
	return r
}

func TestFlattenPathsAndSkips(t *testing.T) {
	r := record(t, 1000)
	want := map[string]float64{
		"fig5.rows":                  8000,
		"fig5.points.0.projectivity": 1,
		"fig5.points.0.cycles.row":   5000,
		"fig5.points.0.cycles.rm":    1000,
		"fig5.points.0.speedup":      1.0,
		"fig5.points.1.projectivity": 2,
		"fig5.points.1.cycles.row":   9000,
		"fig5.points.1.cycles.rm":    2000,
		"fig5.points.1.speedup":      1.5,
	}
	if len(r.Metrics) != len(want) {
		t.Errorf("got %d metrics, want %d: %v", len(r.Metrics), len(want), r.Metrics)
	}
	for k, v := range want {
		if got, ok := r.Metrics[k]; !ok || got != v {
			t.Errorf("metric %q = %v (present %v), want %v", k, got, ok, v)
		}
	}
	for k := range r.Metrics {
		if strings.Contains(k, "wall") || strings.Contains(k, "label") {
			t.Errorf("non-metric leaf leaked into record: %q", k)
		}
	}
}

// TestCompareDetectsInjectedRegression is the acceptance check: a 10% cycle
// regression must trip a 5% gate and name the exact metrics that moved.
func TestCompareDetectsInjectedRegression(t *testing.T) {
	base := record(t, 1000)
	slower := record(t, 1100) // +10% on every RM cycle metric

	regs, err := Compare(base, slower, 5)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if len(regs) != 2 {
		t.Fatalf("got %d regressions, want 2 (both RM points): %v", len(regs), regs)
	}
	for _, g := range regs {
		if !strings.Contains(g.Key, "cycles.rm") {
			t.Errorf("regression on unexpected metric %q", g.Key)
		}
		if g.Percent < 9.9 || g.Percent > 10.1 {
			t.Errorf("regression %q reports %.2f%%, want ~10%%", g.Key, g.Percent)
		}
	}

	// The same delta passes a looser gate.
	regs, err = Compare(base, slower, 15)
	if err != nil {
		t.Fatalf("Compare at 15%%: %v", err)
	}
	if len(regs) != 0 {
		t.Errorf("15%% gate flagged %v, want none", regs)
	}
}

// TestCompareGatesCycleDropsAndIgnoresNonCycles: the cycle gate is
// two-sided. A drop past the tolerance fails like a rise (claiming it means
// re-recording the baseline), a drop within it passes, tolerance 0 fails
// any change, and a non-cycle metric is never gated.
func TestCompareGatesCycleDropsAndIgnoresNonCycles(t *testing.T) {
	base := record(t, 1000)
	faster := record(t, 900) // -10% on every RM cycle metric
	regs, err := Compare(base, faster, 5)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if len(regs) != 2 {
		t.Fatalf("got %d flagged drops, want 2 (both RM points): %v", len(regs), regs)
	}
	for _, g := range regs {
		if !strings.Contains(g.Key, "cycles.rm") || g.Percent > -9.9 || g.Percent < -10.1 {
			t.Errorf("flagged %q at %.2f%%, want an RM cycle metric at ~-10%%", g.Key, g.Percent)
		}
		if !strings.Contains(g.String(), "(-10.0%)") {
			t.Errorf("drop renders as %q, want a signed -10.0%%", g)
		}
	}
	if regs, _ = Compare(base, faster, 15); len(regs) != 0 {
		t.Errorf("15%% gate flagged a 10%% drop: %v", regs)
	}
	if regs, _ = Compare(base, record(t, 999), 0); len(regs) != 2 {
		t.Errorf("tolerance 0 flagged %v, want both RM points' one-cycle drops", regs)
	}

	// A non-cycle metric blowing up is not gated.
	moved := record(t, 1000)
	moved.Metrics["fig5.points.0.speedup"] = 99
	if regs, _ = Compare(base, moved, 5); len(regs) != 0 {
		t.Errorf("non-cycle metric gated: %v", regs)
	}
}

// TestCompareGatesLogicalMetricsExactly: bytes, rows, groups, and
// checksums describe what a run did, not what it cost, so a move in either
// direction fails the gate at any tolerance.
func TestCompareGatesLogicalMetricsExactly(t *testing.T) {
	withLogical := func() *Record {
		r := record(t, 1000)
		r.Metrics["join.groups"] = 42
		r.Metrics["par-speedup.points.0.checksum"] = 1234567
		r.Metrics["abl-offload.points.0.bytes_to_cpu"] = 4096
		return r
	}
	base := withLogical()
	if regs, err := Compare(base, withLogical(), 0); err != nil || len(regs) != 0 {
		t.Fatalf("identical records: regs %v, err %v", regs, err)
	}
	for _, k := range []string{"fig5.rows", "join.groups", "par-speedup.points.0.checksum", "abl-offload.points.0.bytes_to_cpu"} {
		for _, delta := range []float64{-1, 1} {
			cur := withLogical()
			cur.Metrics[k] += delta
			regs, err := Compare(base, cur, 1000)
			if err != nil {
				t.Fatalf("Compare: %v", err)
			}
			if len(regs) != 1 || regs[0].Key != k || !regs[0].Exact {
				t.Fatalf("%s %+v: got %v, want one exact regression on it", k, delta, regs)
			}
			if !strings.Contains(regs[0].String(), "must not change") {
				t.Errorf("exact-gate message unclear: %q", regs[0])
			}
		}
	}
	cur := withLogical()
	delete(cur.Metrics, "join.groups")
	if regs, _ := Compare(base, cur, 1000); len(regs) != 1 || regs[0].New != -1 {
		t.Fatalf("missing exact metric not reported: %v", regs)
	}
}

func TestCompareMetadataMismatch(t *testing.T) {
	base := record(t, 1000)
	other := NewRecord("test", 16000, 1)
	if _, err := Compare(base, other, 5); err == nil {
		t.Error("rows mismatch not rejected")
	}
	other = NewRecord("test", 8000, 2)
	if _, err := Compare(base, other, 5); err == nil {
		t.Error("seed mismatch not rejected")
	}
}

func TestCompareMissingMetric(t *testing.T) {
	base := record(t, 1000)
	cur := record(t, 1000)
	delete(cur.Metrics, "fig5.points.0.cycles.rm")
	regs, err := Compare(base, cur, 5)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if len(regs) != 1 || regs[0].New != -1 {
		t.Fatalf("missing metric not reported: %v", regs)
	}
	if !strings.Contains(regs[0].String(), "missing") {
		t.Errorf("missing-metric message unclear: %q", regs[0])
	}
}

func TestRecordRoundTripDeterministic(t *testing.T) {
	r := record(t, 1000)
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if got.Name != r.Name || got.Rows != r.Rows || got.Seed != r.Seed || len(got.Metrics) != len(r.Metrics) {
		t.Fatalf("round trip changed the record: %+v vs %+v", got, r)
	}

	// Two marshals of equal records are byte-identical — the property the
	// committed baseline relies on.
	a, _ := json.MarshalIndent(r, "", "  ")
	b, _ := json.MarshalIndent(record(t, 1000), "", "  ")
	if !bytes.Equal(a, b) {
		t.Error("equal records marshal differently")
	}
}
