package engine

import (
	"math/rand"
	"testing"

	"rfabric/internal/compress"
	"rfabric/internal/expr"
	"rfabric/internal/fabric"
	"rfabric/internal/geometry"
	"rfabric/internal/obs"
	"rfabric/internal/table"
)

// TestOffloadReducesBytesToCPU is the offload layer's economic claim as a
// unit assertion: for a grouped aggregation the fabric can fold in place,
// offloading must strictly reduce both the bytes crossing to the CPU and
// the total modeled cycles versus shipping packed chunks for CPU-side
// consumption — while returning the identical Result.
func TestOffloadReducesBytesToCPU(t *testing.T) {
	f := newFixture(t, 6, 4000, false)
	q := Query{
		Selection:  expr.Conjunction{{Col: 1, Op: expr.Lt, Operand: table.I32(700)}},
		GroupBy:    []int{2},
		Aggregates: []AggTerm{{Kind: expr.Sum, Arg: expr.ColRef{Col: 3}}, {Kind: expr.Count}},
	}

	f.sys.ResetState()
	cpu, err := (&RMEngine{Tbl: f.tbl, Sys: f.sys, PushSelection: true}).Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	f.sys.ResetState()
	off, err := (&RMEngine{Tbl: f.tbl, Sys: f.sys, Offload: true}).Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := cpu.EquivalentTo(off, 0); err != nil {
		t.Fatalf("offloaded result differs from CPU-side: %v", err)
	}
	if off.Offload != "group-agg" {
		t.Errorf("Offload = %q, want group-agg", off.Offload)
	}
	if off.Breakdown.BytesToCPU >= cpu.Breakdown.BytesToCPU {
		t.Errorf("offload moved %d bytes to CPU, CPU-side %d — no reduction",
			off.Breakdown.BytesToCPU, cpu.Breakdown.BytesToCPU)
	}
	if off.Breakdown.TotalCycles >= cpu.Breakdown.TotalCycles {
		t.Errorf("offload cost %d cycles, CPU-side %d — no reduction",
			off.Breakdown.TotalCycles, cpu.Breakdown.TotalCycles)
	}
}

// TestOffloadSumBeyond2Pow53MatchesRow pins the offload fold to ROW's
// float64 fold where an exact integer sum would differ: BIGINT rows
// [2^53, 1, 1] sum to 2^53 in row order (each +1 rounds away). The fabric
// must return exactly ROW's SUM and AVG, grouped and ungrouped.
func TestOffloadSumBeyond2Pow53MatchesRow(t *testing.T) {
	sys := MustSystem(DefaultSystemConfig())
	sch := geometry.MustSchema(
		geometry.Column{Name: "k", Type: geometry.Int32, Width: 4},
		geometry.Column{Name: "v", Type: geometry.Int64, Width: 8},
	)
	tbl := table.MustNew("big", sch, table.WithCapacity(3),
		table.WithBaseAddr(sys.Arena.Alloc(int64(3*sch.RowBytes()))))
	for _, v := range []int64{1 << 53, 1, 1} {
		tbl.MustAppend(1, table.I32(7), table.I64(v))
	}
	aggs := []AggTerm{{Kind: expr.Sum, Arg: expr.ColRef{Col: 1}}, {Kind: expr.Avg, Arg: expr.ColRef{Col: 1}}}
	for _, q := range []Query{{Aggregates: aggs}, {GroupBy: []int{0}, Aggregates: aggs}} {
		sys.ResetState()
		row, err := (&RowEngine{Tbl: tbl, Sys: sys}).Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		sys.ResetState()
		off, err := (&RMEngine{Tbl: tbl, Sys: sys, Offload: true}).Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if off.Offload == "" {
			t.Fatalf("group by %v did not offload", q.GroupBy)
		}
		if err := off.EquivalentTo(row, 0); err != nil {
			t.Errorf("group by %v: offload differs from ROW: %v", q.GroupBy, err)
		}
	}
	sys.ResetState()
	row, err := (&RowEngine{Tbl: tbl, Sys: sys}).Execute(Query{Aggregates: aggs})
	if err != nil {
		t.Fatal(err)
	}
	if got := row.Aggs[0].Float; got != 1<<53 {
		t.Fatalf("ROW SUM = %v, want 2^53 (the float64 row-order fold)", got)
	}
}

// TestOffloadedScanSpanReconciliation pins the trace contract on the offload
// path: every modeled cycle of an offloaded grouped aggregation is
// attributed to a span, so the root reconciles exactly with the breakdown.
func TestOffloadedScanSpanReconciliation(t *testing.T) {
	f := newFixture(t, 5, 2000, false)
	q := Query{
		Selection:  expr.Conjunction{{Col: 0, Op: expr.Lt, Operand: table.I32(800)}},
		GroupBy:    []int{1},
		Aggregates: []AggTerm{{Kind: expr.Min, Arg: expr.ColRef{Col: 2}}, {Kind: expr.Count}},
	}
	tr := obs.NewTracer("query")
	res, err := (&RMEngine{Tbl: f.tbl, Sys: f.sys, Offload: true, Tracer: tr}).Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Offload == "" {
		t.Fatal("query did not offload")
	}
	if got := tr.Root().AttributedCycles(); got != res.Breakdown.TotalCycles {
		t.Errorf("root span attributes %d cycles, breakdown totals %d", got, res.Breakdown.TotalCycles)
	}
}

// encodedEngineFixture builds a dictionary-encoded table on an engine System:
// (id INT64, mode CHAR(8) dict-encoded, qty INT32), plus the raw original
// for reference results.
func encodedEngineFixture(t *testing.T, rows int) (*System, *table.Table, *compress.EncodedTable) {
	t.Helper()
	sys := MustSystem(DefaultSystemConfig())
	sch := geometry.MustSchema(
		geometry.Column{Name: "id", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "mode", Type: geometry.Char, Width: 8},
		geometry.Column{Name: "qty", Type: geometry.Int32, Width: 4},
	)
	src := table.MustNew("enc", sch, table.WithCapacity(rows),
		table.WithBaseAddr(sys.Arena.Alloc(int64(rows*sch.RowBytes()))))
	modes := []string{"AIR", "RAIL", "SHIP", "TRUCK", "MAIL"}
	rng := rand.New(rand.NewSource(99))
	for r := 0; r < rows; r++ {
		src.MustAppend(1, table.I64(int64(r)), table.Str(modes[rng.Intn(len(modes))]),
			table.I32(rng.Int31n(100)))
	}
	enc, err := compress.EncodeTableDict(src, []int{1}, sys.Arena.Alloc(int64(rows*sch.RowBytes())))
	if err != nil {
		t.Fatal(err)
	}
	return sys, src, enc
}

// TestDictFilteredOffloadScan is the compression-aware scan end to end at the
// engine layer: a value-domain predicate on a dictionary-encoded column is
// translated once into the code domain, the fabric filters rows by stored
// code without CPU-side decompression, the dictionary-translation decode
// cycles land on the fabric's meter inside the traced producer cycles, and
// the span tree still reconciles exactly.
func TestDictFilteredOffloadScan(t *testing.T) {
	const rows = 3000
	sys, src, enc := encodedEngineFixture(t, rows)

	codes, entries, err := enc.MatchCodes(1, func(v table.Value) bool {
		s := v.String()
		return s == "SHIP" || s == "RAIL"
	})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{
		GroupBy:    []int{1},
		Aggregates: []AggTerm{{Kind: expr.Sum, Arg: expr.ColRef{Col: 2}}, {Kind: expr.Count}},
	}

	decodedBefore := sys.Fab.Stats().EntriesDecoded
	tr := obs.NewTracer("query")
	rm := &RMEngine{Tbl: enc.Table, Sys: sys, Offload: true, Tracer: tr,
		DictFilters: []fabric.DictFilter{{Col: 1, Codes: codes, Entries: entries}}}
	res, err := rm.Execute(q)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: CPU-side scan of the raw table with the value-domain
	// predicate, grouped the same way but over decoded values. Compare group
	// count and per-group row totals keyed by decoded mode.
	want := map[string]int64{}
	var qualify int64
	for r := 0; r < rows; r++ {
		v, _ := src.Get(r, 1)
		s := v.String()
		if s != "SHIP" && s != "RAIL" {
			continue
		}
		qualify++
		want[s]++
	}
	var got int64
	for _, g := range res.Groups {
		// The offloaded scan grouped by the stored code; decode it back.
		mode, err := enc.Decode(1, g.Key[0])
		if err != nil {
			t.Fatal(err)
		}
		if g.Count != want[mode.String()] {
			t.Errorf("group %s: %d rows, want %d", mode, g.Count, want[mode.String()])
		}
		got += g.Count
	}
	if got != qualify {
		t.Errorf("offloaded scan qualified %d rows, want %d", got, qualify)
	}
	if len(res.Groups) != len(want) {
		t.Errorf("%d groups, want %d", len(res.Groups), len(want))
	}

	// Decode cycles are attributed to the fabric, once per dictionary entry.
	st := sys.Fab.Stats()
	if st.EntriesDecoded-decodedBefore != uint64(entries) {
		t.Errorf("fabric decoded %d entries, want %d", st.EntriesDecoded-decodedBefore, entries)
	}
	if st.RowsCodeFiltered != uint64(rows)-uint64(qualify) {
		t.Errorf("RowsCodeFiltered = %d, want %d", st.RowsCodeFiltered, uint64(rows)-uint64(qualify))
	}
	if res.Offload != "group-agg" {
		t.Errorf("Offload = %q, want group-agg", res.Offload)
	}
	if got := tr.Root().AttributedCycles(); got != res.Breakdown.TotalCycles {
		t.Errorf("root span attributes %d cycles, breakdown totals %d", got, res.Breakdown.TotalCycles)
	}
}

// TestJoinBloomPrefilterMatchesUnfiltered verifies the Bloom semi-join wired
// through the join executors is invisible to results: the pre-filtered probe
// returns exactly the unfiltered rows (false positives are re-checked CPU-
// side; false negatives are impossible), and the parallel path agrees too.
func TestJoinBloomPrefilterMatchesUnfiltered(t *testing.T) {
	f := newJoinPlanFixture(t, 2500, 50, 21)
	p := q3ClassPlan(f, t)

	f.sys.ResetState()
	plain, err := (&JoinExec{
		Plan:   p,
		Probe:  &RMEngine{Tbl: f.fact, Sys: f.sys},
		Builds: []Source{&RowEngine{Tbl: f.dim, Sys: f.sys}},
	}).Execute()
	if err != nil {
		t.Fatal(err)
	}

	f.sys.ResetState()
	filtered, err := (&JoinExec{
		Plan:   p,
		Probe:  &RMEngine{Tbl: f.fact, Sys: f.sys, Offload: true},
		Builds: []Source{&RowEngine{Tbl: f.dim, Sys: f.sys}},
	}).Execute()
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.EquivalentTo(filtered, 1e-9); err != nil {
		t.Fatalf("Bloom-filtered join disagrees with unfiltered: %v", err)
	}
	if st := f.sys.Fab.Stats(); st.RowsSemiFiltered == 0 {
		t.Error("Bloom pre-filter dropped no probe rows — filter not wired")
	}

	f.sys.ResetState()
	par, err := (&ParallelJoinExec{
		Plan: p, ProbeTbl: f.fact, Sys: f.sys,
		Par:     ParallelConfig{Workers: 4, MorselRows: 128},
		Builds:  []Source{&RowEngine{Tbl: f.dim, Sys: f.sys}},
		Offload: true,
	}).Execute()
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.EquivalentTo(par, 1e-9); err != nil {
		t.Fatalf("parallel Bloom-filtered join disagrees: %v", err)
	}
}

// TestOptimizerPricesOffload pins that pricing and dispatch share one gate:
// when the optimizer is told the offload layer is on, its RM estimate for an
// offloadable aggregation is marked Offloaded and is cheaper than the same
// estimate without offload (the consumer's chunk-walk collapses to reading
// the reduced result).
func TestOptimizerPricesOffload(t *testing.T) {
	f := newFixture(t, 6, 4000, false)
	q := Query{
		Selection:  expr.Conjunction{{Col: 1, Op: expr.Lt, Operand: table.I32(500)}},
		GroupBy:    []int{2},
		Aggregates: []AggTerm{{Kind: expr.Sum, Arg: expr.ColRef{Col: 3}}, {Kind: expr.Count}},
	}
	base := &Optimizer{Tbl: f.tbl, Sys: f.sys}
	cpuEst, ok := base.EstimateFor("RM", q)
	if !ok {
		t.Fatal("RM not priceable")
	}
	if cpuEst.Offloaded {
		t.Error("offload-off estimate marked Offloaded")
	}
	offOpt := &Optimizer{Tbl: f.tbl, Sys: f.sys, Offload: true}
	offEst, ok := offOpt.EstimateFor("RM", q)
	if !ok {
		t.Fatal("RM not priceable with offload")
	}
	if !offEst.Offloaded {
		t.Fatal("offload-on estimate not marked Offloaded")
	}
	if offEst.Cycles >= cpuEst.Cycles {
		t.Errorf("offloaded estimate %f >= CPU-side %f — pricing sees no benefit",
			offEst.Cycles, cpuEst.Cycles)
	}
	// A pure projection cannot offload: the gate must agree with dispatch.
	proj := Query{Projection: []int{0, 1}}
	if est, ok := offOpt.EstimateFor("RM", proj); ok && est.Offloaded {
		t.Error("projection estimate marked Offloaded — dispatch would not offload it")
	}
}
