package fabric

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"rfabric/internal/compress"
	"rfabric/internal/dram"
	"rfabric/internal/expr"
	"rfabric/internal/geometry"
	"rfabric/internal/table"
)

func i64Key(dst []byte, v table.Value) ([]byte, bool) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v.Int))
	return append(dst, b[:]...), true
}

func TestBloomNoFalseNegatives(t *testing.T) {
	bl := NewBloom(1000)
	key := func(i int) []byte {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(i)*2654435761)
		return b[:]
	}
	for i := 0; i < 1000; i++ {
		bl.Add(key(i))
	}
	if bl.Keys() != 1000 {
		t.Fatalf("Keys = %d, want 1000", bl.Keys())
	}
	for i := 0; i < 1000; i++ {
		if !bl.MayContain(key(i)) {
			t.Fatalf("false negative for key %d", i)
		}
	}
	// Disjoint keys should mostly miss: ~10 bits/key and 4 probes lands the
	// false-positive rate around 1-2%; 10% is a generous failure threshold.
	fp := 0
	for i := 1000; i < 11000; i++ {
		if bl.MayContain(key(i)) {
			fp++
		}
	}
	if fp > 1000 {
		t.Errorf("false-positive rate %d/10000 — filter is not filtering", fp)
	}
}

func TestBloomEmptyRejectsEverything(t *testing.T) {
	bl := NewBloom(0)
	if bl.MayContain([]byte("anything")) {
		t.Error("empty filter claimed containment")
	}
	if bl.Keys() != 0 {
		t.Errorf("Keys = %d", bl.Keys())
	}
}

func TestRunOffloadGroupedMatchesSoftware(t *testing.T) {
	f := newFixture(t, 500, false)
	geom := geometry.MustGeometry(f.tbl.Schema(), 2, 1, 3)
	preds := expr.Conjunction{{Col: 1, Op: expr.Lt, Operand: table.I32(80)}}
	ev, err := f.eng.Configure(f.tbl, geom, WithSelection(preds))
	if err != nil {
		t.Fatal(err)
	}
	off := &Offload{
		GroupBy: []int{2},
		Aggs: []expr.AggSpec{
			{Kind: expr.Count},
			{Kind: expr.Sum, Col: 1},
			{Kind: expr.Min, Col: 3},
			{Kind: expr.Max, Col: 3},
		},
	}
	got, err := ev.RunOffload(off)
	if err != nil {
		t.Fatal(err)
	}

	// Software reference in the same first-seen order with the same float64
	// fold sequence.
	type ref struct {
		key      string
		rows     int64
		sum      float64
		min, max float64
	}
	refs := map[string]*ref{}
	var order []*ref
	scanned, qualified := 0, 0
	for r := 0; r < f.tbl.NumRows(); r++ {
		scanned++
		b, _ := f.tbl.Get(r, 1)
		if !(b.Int < 80) {
			continue
		}
		qualified++
		c, _ := f.tbl.Get(r, 2)
		d, _ := f.tbl.Get(r, 3)
		k := c.String()
		g, ok := refs[k]
		if !ok {
			g = &ref{key: k, min: d.Float, max: d.Float}
			refs[k] = g
			order = append(order, g)
		}
		g.rows++
		g.sum += float64(b.Int)
		g.min = math.Min(g.min, d.Float)
		g.max = math.Max(g.max, d.Float)
	}

	if got.RowsScanned != scanned || got.RowsQualified != qualified {
		t.Fatalf("scan counts %d/%d, want %d/%d", got.RowsScanned, got.RowsQualified, scanned, qualified)
	}
	if got.Groups.Len() != len(order) {
		t.Fatalf("%d groups, want %d", got.Groups.Len(), len(order))
	}
	keyBytes := 0
	for i, want := range order {
		if key := got.Groups.KeyValue(i, 0); key.String() != want.key {
			t.Fatalf("group %d key %q, want %q (first-seen order broken)", i, key, want.key)
		}
		keyBytes += len(want.key) + 1 // CHAR key wire size: trimmed bytes + a terminator
		if rows := got.Groups.Count(i); rows != want.rows {
			t.Errorf("group %q rows %d, want %d", want.key, rows, want.rows)
		}
		wantAggs := []table.Value{table.I64(want.rows), table.F64(want.sum), table.F64(want.min), table.F64(want.max)}
		for j := range wantAggs {
			if v := got.Groups.State(i, j).Result(off.Aggs[j].Kind); !v.Equal(wantAggs[j]) {
				t.Errorf("group %q %s = %s, want %s", want.key, off.Aggs[j].Kind, v, wantAggs[j])
			}
		}
	}
	// Reduced results only: nothing shipped, and the bytes-to-CPU bill is the
	// key bytes plus 8 per (group, agg).
	if shipped := f.eng.Stats().BytesShipped; shipped != 0 {
		t.Errorf("grouped offload shipped %d bytes", shipped)
	}
	if want := keyBytes + 8*len(order)*len(off.Aggs); got.ResultBytes != want {
		t.Errorf("ResultBytes = %d, want %d", got.ResultBytes, want)
	}
	twin := newFixture(t, 500, false)
	tev, err := twin.eng.Configure(twin.tbl, geometry.MustGeometry(twin.tbl.Schema(), 2, 1, 3), WithSelection(preds))
	if err != nil {
		t.Fatal(err)
	}
	checkFoldCharges(t, got, f.eng, twin.eng, tev, true, len(order), len(off.Aggs))
}

// checkFoldCharges pins an offload run's charges against a twin view of the
// same program drained with Next: the chunks' ProducerCycles, plus
// AggregateCycles × ClockRatio per qualifying row when grouped and per
// (group, aggregate) for the final fold; no bytes or lines shipped; every
// other fabric counter as Next leaves it.
func checkFoldCharges(t *testing.T, got *OffloadResult, eng, twin *Engine, tev *Ephemeral, grouped bool, groups, aggs int) {
	t.Helper()
	var producer uint64
	var rows int
	for {
		ch, ok := tev.Next()
		if !ok {
			break
		}
		producer += ch.ProducerCycles
		rows += ch.Rows
	}
	cfg := eng.Config()
	perFold := uint64(cfg.AggregateCycles) * uint64(cfg.ClockRatio)
	fold := uint64(groups*aggs) * perFold
	if grouped {
		fold += uint64(rows) * perFold
	}
	if got.ProducerCycles != producer+fold {
		t.Errorf("ProducerCycles = %d, want chunks %d + fold %d", got.ProducerCycles, producer, fold)
	}
	want := twin.Stats()
	want.BytesShipped, want.LinesShipped = 0, 0
	want.ComputeCycles += fold
	want.Aggregates = uint64(groups * aggs)
	if st := eng.Stats(); st != want {
		t.Errorf("fabric Stats = %+v, want %+v", st, want)
	}
}

func TestRunOffloadValidation(t *testing.T) {
	f := newFixture(t, 10, false)
	ev, err := f.eng.Configure(f.tbl, geometry.MustGeometry(f.tbl.Schema(), 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	count := []expr.AggSpec{{Kind: expr.Count}}
	for _, c := range []struct {
		name string
		off  *Offload
	}{
		{"nil program", nil},
		{"no aggregates", &Offload{GroupBy: []int{1}}},
		{"group-by column outside geometry", &Offload{GroupBy: []int{3}, Aggs: count}},
		{"group-by column out of range", &Offload{GroupBy: []int{99}, Aggs: count}},
		{"negative group-by column", &Offload{GroupBy: []int{-1}, Aggs: count}},
		{"aggregate column outside geometry", &Offload{GroupBy: []int{1}, Aggs: []expr.AggSpec{{Kind: expr.Sum, Col: 3}}}},
		{"aggregate column out of range", &Offload{Aggs: []expr.AggSpec{{Kind: expr.Sum, Col: 99}}}},
		{"grouped aggregate column out of range", &Offload{GroupBy: []int{1}, Aggs: []expr.AggSpec{{Kind: expr.Max, Col: 99}}}},
		{"SUM over CHAR", &Offload{Aggs: []expr.AggSpec{{Kind: expr.Sum, Col: 2}}}},
		{"grouped SUM over CHAR", &Offload{GroupBy: []int{1}, Aggs: []expr.AggSpec{{Kind: expr.Sum, Col: 2}}}},
		{"MIN over CHAR", &Offload{GroupBy: []int{1}, Aggs: []expr.AggSpec{{Kind: expr.Min, Col: 2}}}},
	} {
		if _, err := ev.RunOffload(c.off); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestSemiJoinPrefiltersProbeRows(t *testing.T) {
	f := newFixture(t, 256, false)
	// Build side: only even keys below 100 join.
	bl := NewBloom(50)
	var buf []byte
	for k := 0; k < 100; k += 2 {
		buf, _ = i64Key(buf[:0], table.I64(int64(k)))
		bl.Add(buf)
	}
	sj := &SemiJoin{Col: 0, Filter: bl}
	ev, err := f.eng.Configure(f.tbl, geometry.MustGeometry(f.tbl.Schema(), 0, 3), WithSemiJoin(sj))
	if err != nil {
		t.Fatal(err)
	}
	ev.Materialize()
	st := f.eng.Stats()
	// No false negatives: at least the 50 genuinely matching rows survive
	// (col 0 is the row number), and the drop counter reconciles.
	if st.RowsShipped < 50 {
		t.Errorf("shipped %d rows, want >= 50 (false negative)", st.RowsShipped)
	}
	if st.RowsShipped+st.RowsSemiFiltered != st.RowsScanned {
		t.Errorf("shipped %d + semi-filtered %d != scanned %d",
			st.RowsShipped, st.RowsSemiFiltered, st.RowsScanned)
	}
	if st.RowsSemiFiltered == 0 {
		t.Error("filter dropped nothing — 206 rows cannot all be false positives")
	}
}

// TestSemiJoinKeyRejectionDropsRow: a NaN DOUBLE key matches nothing under
// SQL equality, so the fabric drops its row even when the Bloom filter holds
// the NaN's own bit pattern.
func TestSemiJoinKeyRejectionDropsRow(t *testing.T) {
	mem := dram.MustNew(dram.DefaultConfig())
	arena := dram.MustArena(0, 64)
	eng := MustNew(DefaultConfig(), mem, arena)
	sch := geometry.MustSchema(
		geometry.Column{Name: "k", Type: geometry.Float64, Width: 8},
		geometry.Column{Name: "v", Type: geometry.Int32, Width: 4},
	)
	const rows = 16
	tbl := table.MustNew("t", sch, table.WithCapacity(rows),
		table.WithBaseAddr(arena.Alloc(int64(rows*sch.RowBytes()))))
	bl := NewBloom(rows)
	for r := 0; r < rows; r++ {
		nan := math.Float64frombits(0x7ff8000000000000 | uint64(r))
		tbl.MustAppend(0, table.F64(nan), table.I32(int32(r)))
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(nan))
		bl.Add(b[:])
	}
	ev, err := eng.Configure(tbl, geometry.MustGeometry(sch, 0, 1), WithSemiJoin(&SemiJoin{Col: 0, Filter: bl}))
	if err != nil {
		t.Fatal(err)
	}
	ev.Materialize()
	if st := eng.Stats(); st.RowsShipped != 0 || st.RowsSemiFiltered != rows {
		t.Errorf("shipped/filtered = %d/%d, want 0/%d", st.RowsShipped, st.RowsSemiFiltered, rows)
	}
}

func TestConfigureFilterValidation(t *testing.T) {
	f := newFixture(t, 8, false)
	geom := geometry.MustGeometry(f.tbl.Schema(), 0)
	bl := NewBloom(1)
	if _, err := f.eng.Configure(f.tbl, geom,
		WithSemiJoin(&SemiJoin{Col: 99, Filter: bl})); err == nil {
		t.Error("out-of-range semi-join column accepted")
	}
	if _, err := f.eng.Configure(f.tbl, geom,
		WithSemiJoin(&SemiJoin{Col: 0})); err == nil {
		t.Error("semi-join without filter accepted")
	}
	if _, err := f.eng.Configure(f.tbl, geom,
		WithDictFilter(DictFilter{Col: -1, Codes: &compress.CodeSet{}})); err == nil {
		t.Error("out-of-range dict-filter column accepted")
	}
	if _, err := f.eng.Configure(f.tbl, geom,
		WithDictFilter(DictFilter{Col: 0})); err == nil {
		t.Error("dict filter without code set accepted")
	}
	for _, col := range []int{2, 3} { // CHAR and DOUBLE hold no integer codes
		if _, err := f.eng.Configure(f.tbl, geom,
			WithDictFilter(DictFilter{Col: col, Codes: &compress.CodeSet{}})); err == nil {
			t.Errorf("dict filter over non-integer column %d accepted", col)
		}
	}
	// WithSemiJoin(nil) is a no-op, not an error.
	if _, err := f.eng.Configure(f.tbl, geom, WithSemiJoin(nil)); err != nil {
		t.Errorf("nil semi-join rejected: %v", err)
	}
}

// TestDictFilterScansWithoutDecompress is the compression-aware scan: the
// predicate is translated once into the code domain (MatchCodes), the fabric
// filters rows by their stored code without reconstructing a single value,
// and the dictionary-translation decode cost lands on the fabric's meter.
func TestDictFilterScansWithoutDecompress(t *testing.T) {
	mem := dram.MustNew(dram.DefaultConfig())
	arena := dram.MustArena(0, 64)
	eng := MustNew(DefaultConfig(), mem, arena)

	sch := geometry.MustSchema(
		geometry.Column{Name: "id", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "mode", Type: geometry.Char, Width: 10},
		geometry.Column{Name: "qty", Type: geometry.Int32, Width: 4},
	)
	const rows = 600
	src := table.MustNew("t", sch, table.WithCapacity(rows),
		table.WithBaseAddr(arena.Alloc(int64(rows*sch.RowBytes()))))
	modes := []string{"AIR", "RAIL", "SHIP", "TRUCK"}
	rng := rand.New(rand.NewSource(7))
	for r := 0; r < rows; r++ {
		src.MustAppend(0, table.I64(int64(r)), table.Str(modes[rng.Intn(len(modes))]),
			table.I32(rng.Int31n(50)))
	}
	enc, err := compress.EncodeTableDict(src, []int{1}, arena.Alloc(int64(rows*sch.RowBytes())))
	if err != nil {
		t.Fatal(err)
	}
	codes, entries, err := enc.MatchCodes(1, func(v table.Value) bool {
		return v.String() == "SHIP"
	})
	if err != nil {
		t.Fatal(err)
	}
	if entries != len(modes) {
		t.Fatalf("decoded %d dictionary entries, want %d", entries, len(modes))
	}

	ev, err := eng.Configure(enc.Table, geometry.MustGeometry(enc.Table.Schema(), 0, 2),
		WithDictFilter(DictFilter{Col: 1, Codes: codes, Entries: entries}))
	if err != nil {
		t.Fatal(err)
	}
	ev.Materialize()

	want := 0
	for r := 0; r < rows; r++ {
		if v, _ := src.Get(r, 1); v.String() == "SHIP" {
			want++
		}
	}
	st := eng.Stats()
	if st.RowsShipped != uint64(want) {
		t.Errorf("shipped %d rows, want %d (code-domain filter is not exact)", st.RowsShipped, want)
	}
	if st.RowsCodeFiltered != uint64(rows-want) {
		t.Errorf("RowsCodeFiltered = %d, want %d", st.RowsCodeFiltered, rows-want)
	}
	if st.EntriesDecoded != uint64(entries) {
		t.Errorf("EntriesDecoded = %d, want %d — translation cost lost", st.EntriesDecoded, entries)
	}
	if st.ComputeCycles == 0 {
		t.Error("no fabric compute charged")
	}
}

// TestDictFilterTranslationChargeIsOneTime pins where the dictionary decode
// lands: on the first chunk's fabric compute, exactly once per Configure, so
// span reconciliation sees the decode inside the fabric's producer cycles.
func TestDictFilterTranslationChargeIsOneTime(t *testing.T) {
	f := newFixture(t, 64, false)
	set := &compress.CodeSet{}
	for c := 0; c < 100; c++ {
		set.Add(c)
	}
	const entries = 100
	ev, err := f.eng.Configure(f.tbl, geometry.MustGeometry(f.tbl.Schema(), 1),
		WithDictFilter(DictFilter{Col: 1, Codes: set, Entries: entries}))
	if err != nil {
		t.Fatal(err)
	}
	before := f.eng.Stats()
	ev.Materialize()
	mid := f.eng.Stats()
	if got := mid.EntriesDecoded - before.EntriesDecoded; got != entries {
		t.Fatalf("first pass decoded %d entries, want %d", got, entries)
	}
	ev.Materialize()
	if after := f.eng.Stats(); after.EntriesDecoded != mid.EntriesDecoded {
		t.Errorf("re-materialize decoded %d more entries — translation should be one-time",
			after.EntriesDecoded-mid.EntriesDecoded)
	}
}

func TestOffloadDescribe(t *testing.T) {
	cases := []struct {
		off  *Offload
		want string
	}{
		{&Offload{Aggs: []expr.AggSpec{{Kind: expr.Count}}}, "agg"},
		{&Offload{GroupBy: []int{0}, Aggs: []expr.AggSpec{{Kind: expr.Count}}}, "group-agg"},
	}
	for _, c := range cases {
		if got := c.off.Describe(); got != c.want {
			t.Errorf("Describe() = %q, want %q", got, c.want)
		}
	}
}

func TestStatsDeltaCoversFilterCounters(t *testing.T) {
	a := Stats{RowsSemiFiltered: 10, RowsCodeFiltered: 20, EntriesDecoded: 30}
	b := Stats{RowsSemiFiltered: 4, RowsCodeFiltered: 5, EntriesDecoded: 6}
	d := a.Delta(b)
	if d.RowsSemiFiltered != 6 || d.RowsCodeFiltered != 15 || d.EntriesDecoded != 24 {
		t.Errorf("Delta = %+v", d)
	}
}
