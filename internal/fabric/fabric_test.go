package fabric

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"rfabric/internal/dram"
	"rfabric/internal/expr"
	"rfabric/internal/geometry"
	"rfabric/internal/table"
)

type fixture struct {
	eng *Engine
	tbl *table.Table
}

func newFixture(t *testing.T, rows int, mvcc bool, cfg ...Config) *fixture {
	t.Helper()
	c := DefaultConfig()
	if len(cfg) > 0 {
		c = cfg[0]
	}
	mem := dram.MustNew(dram.DefaultConfig())
	arena := dram.MustArena(0, 64)
	eng := MustNew(c, mem, arena)

	sch := geometry.MustSchema(
		geometry.Column{Name: "a", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "b", Type: geometry.Int32, Width: 4},
		geometry.Column{Name: "c", Type: geometry.Char, Width: 5},
		geometry.Column{Name: "d", Type: geometry.Float64, Width: 8},
		geometry.Column{Name: "e", Type: geometry.Int32, Width: 4},
	)
	var opts []table.Option
	if mvcc {
		opts = append(opts, table.WithMVCC())
	}
	stride := sch.RowBytes()
	if mvcc {
		stride += table.MVCCHeaderBytes
	}
	opts = append(opts, table.WithBaseAddr(arena.Alloc(int64(rows*stride))), table.WithCapacity(rows))
	tbl := table.MustNew("t", sch, opts...)
	rng := rand.New(rand.NewSource(9))
	for r := 0; r < rows; r++ {
		tbl.MustAppend(1,
			table.I64(int64(r)),
			table.I32(int32(rng.Intn(100))),
			table.Str(string(rune('a'+r%26))),
			table.F64(float64(r)*0.5),
			table.I32(int32(rng.Intn(100))),
		)
	}
	return &fixture{eng: eng, tbl: tbl}
}

// referencePack builds the expected packed bytes in software.
func referencePack(tbl *table.Table, geom *geometry.Geometry, visible func(r int) bool) []byte {
	var out []byte
	sch := tbl.Schema()
	for r := 0; r < tbl.NumRows(); r++ {
		if visible != nil && !visible(r) {
			continue
		}
		payload := tbl.RowPayload(r)
		for _, c := range geom.Columns() {
			out = append(out, payload[sch.Offset(c):sch.Offset(c)+sch.Column(c).Width]...)
		}
	}
	return out
}

func TestMaterializeMatchesReference(t *testing.T) {
	f := newFixture(t, 500, false)
	for _, cols := range [][]int{{0}, {1, 3}, {4, 0, 2}, {0, 1, 2, 3, 4}} {
		geom := geometry.MustGeometry(f.tbl.Schema(), cols...)
		ev, err := f.eng.Configure(f.tbl, geom)
		if err != nil {
			t.Fatalf("Configure(%v): %v", cols, err)
		}
		got := ev.Materialize()
		want := referencePack(f.tbl, geom, nil)
		if !bytes.Equal(got, want) {
			t.Errorf("cols %v: packed bytes diverge (got %d bytes, want %d)", cols, len(got), len(want))
		}
	}
}

func TestChunkingAcrossBufferBoundary(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BufferBytes = 256 // tiny: forces many refills
	f := newFixture(t, 300, false, cfg)
	geom := geometry.MustGeometry(f.tbl.Schema(), 0, 3) // 16 B packed
	ev, err := f.eng.Configure(f.tbl, geom)
	if err != nil {
		t.Fatalf("Configure: %v", err)
	}
	var total []byte
	chunks := 0
	for {
		ch, ok := ev.Next()
		if !ok {
			break
		}
		chunks++
		if ch.Rows*geom.PackedWidth() != len(ch.Data) {
			t.Fatalf("chunk %d: %d rows but %d bytes", chunks, ch.Rows, len(ch.Data))
		}
		if len(ch.Data) > cfg.BufferBytes {
			t.Fatalf("chunk %d exceeds buffer: %d > %d", chunks, len(ch.Data), cfg.BufferBytes)
		}
		total = append(total, ch.Data...)
	}
	if wantChunks := (300 + 15) / 16; chunks != wantChunks {
		t.Errorf("chunks = %d, want %d (16 rows per 256-byte buffer)", chunks, wantChunks)
	}
	if want := referencePack(f.tbl, geom, nil); !bytes.Equal(total, want) {
		t.Error("chunked materialization diverges from reference")
	}
	if got := f.eng.Stats().Chunks; got != uint64(chunks) {
		t.Errorf("stats chunks = %d, want %d", got, chunks)
	}
}

func TestPackedRowTooLargeForBuffer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BufferBytes = 8
	f := newFixture(t, 10, false, cfg)
	geom := geometry.MustGeometry(f.tbl.Schema(), 0, 3)
	if _, err := f.eng.Configure(f.tbl, geom); err == nil {
		t.Error("packed row larger than buffer accepted")
	}
}

func TestConfigureValidation(t *testing.T) {
	f := newFixture(t, 10, false)
	geom := geometry.MustGeometry(f.tbl.Schema(), 0)
	if _, err := f.eng.Configure(nil, geom); err == nil {
		t.Error("nil table accepted")
	}
	if _, err := f.eng.Configure(f.tbl, nil); err == nil {
		t.Error("nil geometry accepted")
	}
	other := geometry.MustSchema(geometry.Column{Name: "x", Type: geometry.Int64, Width: 8})
	otherGeom := geometry.MustGeometry(other, 0)
	if _, err := f.eng.Configure(f.tbl, otherGeom); err == nil {
		t.Error("mismatched schema accepted")
	}
	if _, err := f.eng.Configure(f.tbl, geom, WithSnapshot(1)); err == nil {
		t.Error("snapshot over non-MVCC table accepted")
	}
	badPred := expr.Conjunction{{Col: 99, Op: expr.Eq, Operand: table.I64(0)}}
	if _, err := f.eng.Configure(f.tbl, geom, WithSelection(badPred)); err == nil {
		t.Error("invalid pushdown predicate accepted")
	}
}

func TestSnapshotFiltering(t *testing.T) {
	f := newFixture(t, 100, true)
	// Kill every third row at ts 5; add ten fresh rows at ts 8.
	for r := 0; r < 100; r += 3 {
		if err := f.tbl.SetEndTS(r, 5); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		f.tbl.MustAppend(8, table.I64(int64(1000+i)), table.I32(1), table.Str("z"), table.F64(0), table.I32(2))
	}
	geom := geometry.MustGeometry(f.tbl.Schema(), 0, 1)

	for _, ts := range []uint64{1, 4, 5, 8, 20} {
		ev, err := f.eng.Configure(f.tbl, geom, WithSnapshot(ts))
		if err != nil {
			t.Fatal(err)
		}
		got := ev.Materialize()
		want := referencePack(f.tbl, geom, func(r int) bool { return f.tbl.VisibleAt(r, ts) })
		if !bytes.Equal(got, want) {
			t.Errorf("snapshot %d: packed bytes diverge", ts)
		}
	}
}

func TestSelectionPushdown(t *testing.T) {
	f := newFixture(t, 400, false)
	geom := geometry.MustGeometry(f.tbl.Schema(), 0, 3)
	preds := expr.Conjunction{
		{Col: 1, Op: expr.Lt, Operand: table.I32(50)},
		{Col: 4, Op: expr.Ge, Operand: table.I32(20)},
	}
	ev, err := f.eng.Configure(f.tbl, geom, WithSelection(preds))
	if err != nil {
		t.Fatal(err)
	}
	got := ev.Materialize()
	want := referencePack(f.tbl, geom, func(r int) bool {
		for _, p := range preds {
			v, _ := f.tbl.Get(r, p.Col)
			if !p.Eval(v) {
				return false
			}
		}
		return true
	})
	if !bytes.Equal(got, want) {
		t.Error("selection pushdown result diverges from reference")
	}
	if len(got) == len(referencePack(f.tbl, geom, nil)) {
		t.Error("selection filtered nothing; predicates not selective")
	}
	// Predicate-only columns are gathered but never shipped.
	st := f.eng.Stats()
	if st.BytesShipped != uint64(len(got)) {
		t.Errorf("BytesShipped = %d, want %d", st.BytesShipped, len(got))
	}
}

func TestGatherStrideCoalescing(t *testing.T) {
	f := newFixture(t, 10, false)
	// Columns 0 (off 0, 8B) and 1 (off 8, 4B) are adjacent: one stride.
	ev, err := f.eng.Configure(f.tbl, geometry.MustGeometry(f.tbl.Schema(), 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ev.gatherStrides); n != 1 {
		t.Errorf("adjacent columns gathered as %d strides", n)
	}
	// Columns 0 (8B at 0) and 4 (4B at 25): gap of 17 >= burst 16 keeps
	// them separate.
	ev2, err := f.eng.Configure(f.tbl, geometry.MustGeometry(f.tbl.Schema(), 0, 4))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ev2.gatherStrides); n != 2 {
		t.Errorf("distant columns gathered as %d strides, want 2", n)
	}
	// Columns 1 (4B at 8) and 3 (8B at 17): gap of 5 < 16 coalesces.
	ev3, err := f.eng.Configure(f.tbl, geometry.MustGeometry(f.tbl.Schema(), 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ev3.gatherStrides); n != 1 {
		t.Errorf("near columns gathered as %d strides, want 1 (coalesced)", n)
	}
	if ev3.GatherBytesPerRow() <= 0 {
		t.Error("GatherBytesPerRow not positive")
	}
}

// TestAggregationPushdownMatchesSoftware pins the ungrouped offload fold
// against a row-at-a-time software reference and against the charge
// formula: the chunks' ProducerCycles plus AggregateCycles × ClockRatio per
// aggregate, no bytes shipped, 8 result bytes per aggregate, and otherwise
// the same fabric Stats as draining the view with Next.
func TestAggregationPushdownMatchesSoftware(t *testing.T) {
	specs := []expr.AggSpec{
		{Kind: expr.Count},
		{Kind: expr.Sum, Col: 1},
		{Kind: expr.Min, Col: 3},
		{Kind: expr.Max, Col: 3},
		{Kind: expr.Avg, Col: 0},
	}
	small := DefaultConfig()
	small.BufferBytes = 512
	cases := []struct {
		name  string
		mvcc  bool
		cfg   Config
		bound int64 // rows qualify when b < bound
		snap  bool
	}{
		{"selection", false, DefaultConfig(), 70, false},
		{"small-buffer", false, small, 70, false},
		{"zero-rows", false, DefaultConfig(), 0, false},
		{"snapshot", true, small, 100, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			const ts = 3
			mk := func() (*fixture, *Ephemeral) {
				f := newFixture(t, 3000, c.mvcc, c.cfg)
				opts := []ViewOption{WithSelection(expr.Conjunction{{Col: 1, Op: expr.Lt, Operand: table.I32(int32(c.bound))}})}
				if c.snap {
					for r := 0; r < f.tbl.NumRows(); r += 3 {
						if err := f.tbl.SetEndTS(r, ts); err != nil {
							t.Fatal(err)
						}
					}
					opts = append(opts, WithSnapshot(ts))
				}
				ev, err := f.eng.Configure(f.tbl, geometry.MustGeometry(f.tbl.Schema(), 3, 1, 0), opts...)
				if err != nil {
					t.Fatal(err)
				}
				return f, ev
			}
			f, ev := mk()
			got, err := ev.RunOffload(&Offload{Aggs: specs})
			if err != nil {
				t.Fatal(err)
			}

			// Software reference: the same float64 adds in row order.
			var count int64
			var sum, minD, maxD, sumA float64
			for r := 0; r < f.tbl.NumRows(); r++ {
				if c.snap && !f.tbl.VisibleAt(r, ts) {
					continue
				}
				a, b, d := f.tbl.MustGet(r, 0), f.tbl.MustGet(r, 1), f.tbl.MustGet(r, 3)
				if b.Int >= c.bound {
					continue
				}
				if count == 0 || d.Float < minD {
					minD = d.Float
				}
				if count == 0 || d.Float > maxD {
					maxD = d.Float
				}
				count++
				sum += float64(b.Int)
				sumA += float64(a.Int)
			}
			avg := 0.0
			if count > 0 {
				avg = sumA / float64(count)
			}
			want := []table.Value{table.I64(count), table.F64(sum), table.F64(minD), table.F64(maxD), table.F64(avg)}
			if got.Groups != nil || len(got.Values) != len(want) {
				t.Fatalf("ungrouped offload returned %d values and group table %v", len(got.Values), got.Groups)
			}
			for i := range want {
				if !got.Values[i].Equal(want[i]) {
					t.Errorf("%s = %s, want %s", specs[i].Kind, got.Values[i], want[i])
				}
			}
			if got.RowsScanned != f.tbl.NumRows() || got.RowsQualified != int(count) {
				t.Errorf("scan counts %d/%d, want %d/%d", got.RowsScanned, got.RowsQualified, f.tbl.NumRows(), count)
			}
			if got.ResultBytes != 8*len(specs) {
				t.Errorf("ResultBytes = %d, want %d", got.ResultBytes, 8*len(specs))
			}

			twin, tev := mk()
			checkFoldCharges(t, got, f.eng, twin.eng, tev, false, 1, len(specs))
		})
	}
}

func TestAggregateRequiresGeometryColumn(t *testing.T) {
	f := newFixture(t, 10, false)
	ev, err := f.eng.Configure(f.tbl, geometry.MustGeometry(f.tbl.Schema(), 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.RunOffload(&Offload{Aggs: []expr.AggSpec{{Kind: expr.Sum, Col: 3}}}); err == nil {
		t.Error("aggregate over a column outside the configured geometry accepted")
	}
	if _, err := ev.RunOffload(&Offload{}); err == nil {
		t.Error("empty spec list accepted")
	}
}

func TestStatsAccounting(t *testing.T) {
	f := newFixture(t, 128, false)
	geom := geometry.MustGeometry(f.tbl.Schema(), 0, 1)
	ev, err := f.eng.Configure(f.tbl, geom)
	if err != nil {
		t.Fatal(err)
	}
	packed := ev.Materialize()
	st := f.eng.Stats()
	if st.RowsScanned != 128 || st.RowsShipped != 128 {
		t.Errorf("rows scanned/shipped = %d/%d", st.RowsScanned, st.RowsShipped)
	}
	if st.BytesShipped != uint64(len(packed)) {
		t.Errorf("BytesShipped = %d, want %d", st.BytesShipped, len(packed))
	}
	if st.BytesGathered == 0 || st.GatherCycles == 0 || st.ComputeCycles == 0 {
		t.Errorf("zero gather accounting: %+v", st)
	}
	// Shipped data is never more than gathered data for a projection.
	if st.BytesShipped > st.BytesGathered {
		t.Errorf("shipped %d > gathered %d", st.BytesShipped, st.BytesGathered)
	}
}

func TestResetReplaysIdentically(t *testing.T) {
	f := newFixture(t, 77, false)
	ev, err := f.eng.Configure(f.tbl, geometry.MustGeometry(f.tbl.Schema(), 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	first := append([]byte(nil), ev.Materialize()...)
	second := ev.Materialize()
	if !bytes.Equal(first, second) {
		t.Error("second materialization differs from first")
	}
}

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.BufferBytes = 0 },
		func(c *Config) { c.ClockRatio = 0 },
		func(c *Config) { c.MaxOutstanding = 0 },
		func(c *Config) { c.RowsPerCycle = 0 },
		func(c *Config) { c.BeatBytes = 0 },
		func(c *Config) { c.TSCheckCycles = -1 },
		func(c *Config) { c.RefillCycles = -1 },
	}
	for i, mutate := range mutations {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// TestMaterializeProperty: for random row counts, geometries, and snapshot
// kill patterns, the fabric's packed output equals the software reference.
func TestMaterializeProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(200)
		f := newFixtureQ(rows, rng)
		nCols := f.tbl.Schema().NumColumns()
		var cols []int
		for c := 0; c < nCols; c++ {
			if rng.Intn(2) == 0 {
				cols = append(cols, c)
			}
		}
		if len(cols) == 0 {
			cols = []int{rng.Intn(nCols)}
		}
		rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
		geom, err := geometry.NewGeometry(f.tbl.Schema(), cols...)
		if err != nil {
			return false
		}
		// Random snapshot pattern.
		ts := uint64(rng.Intn(10))
		for r := 0; r < rows; r++ {
			if rng.Intn(4) == 0 {
				_ = f.tbl.SetEndTS(r, uint64(rng.Intn(10)))
			}
		}
		ev, err := f.eng.Configure(f.tbl, geom, WithSnapshot(ts))
		if err != nil {
			return false
		}
		got := ev.Materialize()
		want := referencePack(f.tbl, geom, func(r int) bool { return f.tbl.VisibleAt(r, ts) })
		return bytes.Equal(got, want)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// newFixtureQ is the property-test fixture builder (MVCC, small buffer so
// chunking is exercised too).
func newFixtureQ(rows int, rng *rand.Rand) *fixture {
	cfg := DefaultConfig()
	cfg.BufferBytes = 128 + rng.Intn(512)
	mem := dram.MustNew(dram.DefaultConfig())
	arena := dram.MustArena(0, 64)
	eng := MustNew(cfg, mem, arena)
	sch := geometry.MustSchema(
		geometry.Column{Name: "a", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "b", Type: geometry.Int32, Width: 4},
		geometry.Column{Name: "c", Type: geometry.Char, Width: 3},
	)
	stride := sch.RowBytes() + table.MVCCHeaderBytes
	tbl := table.MustNew("q", sch, table.WithMVCC(),
		table.WithBaseAddr(arena.Alloc(int64(rows*stride))), table.WithCapacity(rows))
	for r := 0; r < rows; r++ {
		tbl.MustAppend(uint64(rng.Intn(5)),
			table.I64(rng.Int63()),
			table.I32(rng.Int31()),
			table.Str(string(rune('a'+rng.Intn(26)))),
		)
	}
	return &fixture{eng: eng, tbl: tbl}
}
