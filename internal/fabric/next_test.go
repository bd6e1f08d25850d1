package fabric

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rfabric/internal/compress"
	"rfabric/internal/dram"
	"rfabric/internal/expr"
	"rfabric/internal/geometry"
	"rfabric/internal/table"
	"rfabric/internal/vec"
)

// refView is the row-at-a-time Next that the block pipeline replaced, kept
// as the differential oracle. Phase 1 (gather requests) and the chunk
// accounting are the production code's; phase 2 decodes every filtered
// value through table.Get and evaluates it with Predicate.Eval, the
// engine's Value-based join-key encoding and CodeSet.Contains, then packs
// from RowPayload in geometry order. It drives a view configured on its own
// engine, using only that view's configuration and cursor.
type refView struct {
	ev  *Ephemeral
	buf []byte
	key []byte
}

// refJoinKey is the engine's canonical join-key encoding of a boxed value.
func refJoinKey(dst []byte, v table.Value) ([]byte, bool) {
	switch v.Type {
	case geometry.Float64:
		return vec.AppendJoinKeyF64(dst, v.Float)
	case geometry.Char:
		return vec.AppendJoinKeyChar(dst, v.Bytes), true
	default:
		return vec.AppendJoinKeyI64(dst, v.Int), true
	}
}

func (rv *refView) get(r, col int) table.Value {
	v, err := rv.ev.tbl.Get(r, col)
	if err != nil {
		panic(err)
	}
	return v
}

func (rv *refView) next() (Chunk, bool) {
	ev := rv.ev
	if ev.cursor >= ev.tbl.NumRows() {
		return Chunk{}, false
	}
	e := ev.eng
	lineBytes := int64(e.mem.LineBytes())
	end := min(ev.cursor+ev.chunkRows, ev.tbl.NumRows())

	ev.reqs = ev.reqs[:0]
	var gatherCycles uint64
	flush := func() {
		if len(ev.reqs) > 0 {
			gatherCycles += e.mem.GatherBatch(ev.reqs)
			ev.reqs = ev.reqs[:0]
		}
	}
	for r := ev.cursor; r < end; r++ {
		base := ev.tbl.RowAddr(r)
		for _, s := range ev.gatherStrides {
			ev.reqs = append(ev.reqs, dram.GatherReq{Addr: base + int64(s.Offset), Bytes: s.Width})
			if len(ev.reqs) >= e.cfg.MaxOutstanding {
				flush()
			}
		}
	}
	flush()

	rv.buf = rv.buf[:0]
	var fabricCycles uint64
	if ev.pendingFabricCycles > 0 {
		fabricCycles += ev.pendingFabricCycles
		e.stats.EntriesDecoded += ev.pendingDecodes
		ev.pendingFabricCycles, ev.pendingDecodes = 0, 0
	}
	sch := ev.tbl.Schema()
	rowsShipped := 0
	var semiDropped, codeDropped uint64
rows:
	for r := ev.cursor; r < end; r++ {
		if ev.tbl.HasMVCC() {
			fabricCycles += uint64(e.cfg.TSCheckCycles)
			if ev.opts.hasSnap && !ev.tbl.VisibleAt(r, ev.opts.snapshotTS) {
				continue
			}
		}
		if len(ev.opts.preds) > 0 {
			fabricCycles += uint64(len(ev.opts.preds) * e.cfg.PredicateCycles)
			for _, p := range ev.opts.preds {
				if !p.Eval(rv.get(r, p.Col)) {
					continue rows
				}
			}
		}
		if len(ev.opts.dictFilters) > 0 {
			fabricCycles += uint64(len(ev.opts.dictFilters) * e.cfg.PredicateCycles)
			for _, f := range ev.opts.dictFilters {
				if !f.Codes.Contains(int(rv.get(r, f.Col).Int)) {
					codeDropped++
					continue rows
				}
			}
		}
		if sj := ev.opts.semi; sj != nil {
			fabricCycles += uint64(e.cfg.PredicateCycles)
			key, ok := refJoinKey(rv.key[:0], rv.get(r, sj.Col))
			rv.key = key
			if !ok || !sj.Filter.MayContain(key) {
				semiDropped++
				continue
			}
		}
		payload := ev.tbl.RowPayload(r)
		for _, c := range ev.geom.Columns() {
			rv.buf = append(rv.buf, payload[sch.Offset(c):sch.Offset(c)+sch.Column(c).Width]...)
		}
		rowsShipped++
	}

	srcRows := end - ev.cursor
	gatherBytes := uint64(srcRows) * uint64(ev.GatherBytesPerRow())
	rowCycles := uint64((srcRows + e.cfg.RowsPerCycle - 1) / e.cfg.RowsPerCycle)
	beatCycles := (gatherBytes + uint64(e.cfg.BeatBytes) - 1) / uint64(e.cfg.BeatBytes)
	fabricCycles += max(beatCycles, rowCycles)
	linesShipped := (len(rv.buf) + int(lineBytes) - 1) / int(lineBytes)
	computeCPU := e.computeCPUCycles(fabricCycles)
	producer := max(gatherCycles, computeCPU) + uint64(e.cfg.RefillCycles)
	e.tl.FabricChunk(computeCPU, producer-computeCPU)

	ev.cursor = end
	e.stats.RowsScanned += uint64(srcRows)
	e.stats.RowsShipped += uint64(rowsShipped)
	e.stats.BytesShipped += uint64(len(rv.buf))
	e.stats.LinesShipped += uint64(linesShipped)
	e.stats.BytesGathered += gatherBytes
	e.stats.GatherCycles += gatherCycles
	e.stats.ComputeCycles += computeCPU
	e.stats.Chunks++
	e.stats.RowsSemiFiltered += semiDropped
	e.stats.RowsCodeFiltered += codeDropped
	return Chunk{
		Rows:           rowsShipped,
		Data:           rv.buf,
		BaseAddr:       ev.deliveryBase,
		ProducerCycles: producer,
		SourceRows:     srcRows,
	}, true
}

// nextSchema covers every column type: BIGINT, INT, DATE, DOUBLE, CHAR, and
// an INT column of dictionary codes.
var nextSchema = geometry.MustSchema(
	geometry.Column{Name: "id", Type: geometry.Int64, Width: 8},
	geometry.Column{Name: "n", Type: geometry.Int32, Width: 4},
	geometry.Column{Name: "day", Type: geometry.Date, Width: 4},
	geometry.Column{Name: "x", Type: geometry.Float64, Width: 8},
	geometry.Column{Name: "s", Type: geometry.Char, Width: 5},
	geometry.Column{Name: "code", Type: geometry.Int32, Width: 4},
)

const codeCol = 5

var (
	nextFloats = []float64{
		math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Copysign(0, -1), 0,
		math.Inf(1), math.Inf(-1), -1.5, 2.25, 1e300, 0.5,
	}
	// Prefix-equal values, NUL padding and an embedded NUL.
	nextStrings = []string{"", "a", "ab", "abc", "abcd", "abcde", "ab\x00c", "b", "\x00a"}
)

// randValue draws a value of col's type from a small pool, so predicates
// and semi-join keys hit equal values often.
func randValue(rng *rand.Rand, col int) table.Value {
	switch nextSchema.Column(col).Type {
	case geometry.Int64:
		if rng.Intn(10) == 0 {
			return table.I64([]int64{math.MinInt64, math.MaxInt64}[rng.Intn(2)])
		}
		return table.I64(rng.Int63n(40) - 20)
	case geometry.Int32:
		if col == codeCol {
			return table.I32(rng.Int31n(14) - 2)
		}
		if rng.Intn(10) == 0 {
			return table.I32([]int32{math.MinInt32, math.MaxInt32}[rng.Intn(2)])
		}
		return table.I32(rng.Int31n(40) - 20)
	case geometry.Date:
		return table.DateV(10000 + rng.Int31n(30))
	case geometry.Float64:
		return table.F64(nextFloats[rng.Intn(len(nextFloats))])
	default:
		return table.Str(nextStrings[rng.Intn(len(nextStrings))])
	}
}

func appendRandRows(rng *rand.Rand, tbl *table.Table, n int, ts uint64) {
	vals := make([]table.Value, nextSchema.NumColumns())
	for i := 0; i < n; i++ {
		for c := range vals {
			vals[c] = randValue(rng, c)
		}
		tbl.MustAppend(ts+uint64(rng.Intn(3)), vals...)
	}
}

// killRandRows ends the validity of about a quarter of the live versions.
func killRandRows(rng *rand.Rand, tbl *table.Table) {
	for r := 0; r < tbl.NumRows(); r++ {
		if b, end := tbl.Timestamps(r); end == table.InfinityTS && rng.Intn(4) == 0 {
			_ = tbl.SetEndTS(r, b+uint64(rng.Intn(4)))
		}
	}
}

// nextCase is one randomized view configuration, built twice: once for the
// block pipeline and once for the oracle, on engines with identical state.
type nextCase struct {
	cfg    Config
	parent *table.Table // the appendable base table
	tbl    *table.Table // parent or a slice of it
	geom   *geometry.Geometry
	opts   []ViewOption
	desc   string
}

func randNextCase(rng *rand.Rand) *nextCase {
	nc := &nextCase{cfg: DefaultConfig()}
	nc.cfg.PredicateCycles = []int{0, 1, 3}[rng.Intn(3)]
	nc.cfg.TSCheckCycles = []int{0, 2}[rng.Intn(2)]
	nc.cfg.MaxOutstanding = []int{64, 7}[rng.Intn(2)]

	var cols []int
	for c := 0; c < nextSchema.NumColumns(); c++ {
		if rng.Intn(2) == 0 {
			cols = append(cols, c)
		}
	}
	if len(cols) == 0 {
		cols = []int{rng.Intn(nextSchema.NumColumns())}
	}
	rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
	nc.geom = geometry.MustGeometry(nextSchema, cols...)
	packed := nc.geom.PackedWidth()

	// Chunk ends just below, at, and just above one block, or anywhere.
	chunk := []int{1023, 1024, 1025, 1 + rng.Intn(3000), 0}[rng.Intn(5)]
	if chunk > 0 {
		nc.cfg.BufferBytes = chunk*packed + rng.Intn(packed)
	}

	mvcc := rng.Intn(2) == 0
	var topts []table.Option
	if mvcc {
		topts = append(topts, table.WithMVCC())
	}
	nc.parent = table.MustNew("t", nextSchema, append(topts, table.WithBaseAddr(1<<20))...)
	rows := []int{0, 1, 1023, 1024, 1025, rng.Intn(3500)}[rng.Intn(6)]
	appendRandRows(rng, nc.parent, rows, 1)
	if mvcc {
		killRandRows(rng, nc.parent)
	}
	nc.tbl = nc.parent
	if rows > 0 && rng.Intn(3) == 0 {
		lo := rng.Intn(rows)
		hi := lo + rng.Intn(rows-lo+1)
		nc.tbl, _ = nc.parent.Slice(lo, hi)
	}
	nc.desc = fmt.Sprintf("cols=%v rows=%d view=%d mvcc=%v buffer=%d predCycles=%d tsCycles=%d",
		cols, rows, nc.tbl.NumRows(), mvcc, nc.cfg.BufferBytes, nc.cfg.PredicateCycles, nc.cfg.TSCheckCycles)

	if mvcc && rng.Intn(4) != 0 {
		ts := uint64(rng.Intn(8))
		nc.opts = append(nc.opts, WithSnapshot(ts))
		nc.desc += fmt.Sprintf(" snapshot=%d", ts)
	}
	if np := rng.Intn(4); np > 0 {
		preds := make(expr.Conjunction, np)
		for i := range preds {
			c := rng.Intn(nextSchema.NumColumns())
			preds[i] = expr.Predicate{Col: c, Op: expr.CmpOp(rng.Intn(6)), Operand: randValue(rng, c)}
		}
		nc.opts = append(nc.opts, WithSelection(preds))
		nc.desc += fmt.Sprintf(" preds=%d", np)
	}
	for i := rng.Intn(3); i > 0; i-- {
		set := &compress.CodeSet{}
		for c := 0; c < 12; c++ {
			if rng.Intn(3) != 0 {
				set.Add(c)
			}
		}
		col := []int{codeCol, 1, 2, 0}[rng.Intn(4)]
		nc.opts = append(nc.opts, WithDictFilter(DictFilter{Col: col, Codes: set, Entries: rng.Intn(20)}))
		nc.desc += fmt.Sprintf(" dict(col=%d)", col)
	}
	if rng.Intn(2) == 0 {
		col := rng.Intn(codeCol)
		bl := NewBloom(16)
		for i := 0; i < 16; i++ {
			if key, ok := refJoinKey(nil, randValue(rng, col)); ok {
				bl.Add(key)
			}
		}
		// A NaN's bit pattern in the filter must still not let NaN rows
		// through.
		bl.Add(vec.AppendKeyF64(nil, math.NaN()))
		nc.opts = append(nc.opts, WithSemiJoin(&SemiJoin{Col: col, Filter: bl}))
		nc.desc += fmt.Sprintf(" semi(col=%d)", col)
	}
	return nc
}

// nextPair is the same view configured on two engines with identical DRAM
// and arena state: ev on eng runs the block pipeline, ref on refEng the
// oracle.
type nextPair struct {
	eng, refEng *Engine
	ev          *Ephemeral
	ref         *refView
}

func newNextPair(t *testing.T, nc *nextCase) *nextPair {
	t.Helper()
	mk := func() (*Engine, *Ephemeral) {
		eng := MustNew(nc.cfg, dram.MustNew(dram.DefaultConfig()), dram.MustArena(1<<40, 64))
		ev, err := eng.Configure(nc.tbl, nc.geom, nc.opts...)
		if err != nil {
			t.Fatalf("%s: Configure: %v", nc.desc, err)
		}
		return eng, ev
	}
	p := &nextPair{}
	p.eng, p.ev = mk()
	var refEv *Ephemeral
	p.refEng, refEv = mk()
	p.ref = &refView{ev: refEv}
	return p
}

// step calls Next on both views and requires identical chunks and counters.
func (p *nextPair) step(t *testing.T, desc string, call int) bool {
	t.Helper()
	got, okG := p.ev.Next()
	want, okW := p.ref.next()
	if okG != okW {
		t.Fatalf("%s: call %d: ok = %v, want %v", desc, call, okG, okW)
	}
	if got.Rows != want.Rows || got.SourceRows != want.SourceRows || got.BaseAddr != want.BaseAddr ||
		got.ProducerCycles != want.ProducerCycles || !bytes.Equal(got.Data, want.Data) {
		t.Fatalf("%s: call %d: chunk rows/src/base/producer %d/%d/%d/%d (%d bytes), want %d/%d/%d/%d (%d bytes)",
			desc, call, got.Rows, got.SourceRows, got.BaseAddr, got.ProducerCycles, len(got.Data),
			want.Rows, want.SourceRows, want.BaseAddr, want.ProducerCycles, len(want.Data))
	}
	if g, w := p.eng.Stats(), p.refEng.Stats(); g != w {
		t.Fatalf("%s: call %d: fabric stats\n got %+v\nwant %+v", desc, call, g, w)
	}
	if g, w := p.eng.DRAM().Stats(), p.refEng.DRAM().Stats(); g != w {
		t.Fatalf("%s: call %d: DRAM stats\n got %+v\nwant %+v", desc, call, g, w)
	}
	return okG
}

func (p *nextPair) drain(t *testing.T, desc string) {
	t.Helper()
	for call := 0; p.step(t, desc, call); call++ {
	}
}

func (p *nextPair) reset() {
	p.ev.Reset()
	p.ref.ev.Reset()
}

// TestNextMatchesRowAtATimeOracle is the differential harness for the block
// pipeline: random tables over every column type, MVCC snapshots with dead
// versions, pushed predicates, dictionary filters, semi-joins on every key
// type, chunk boundaries around one block, slice views, and a Reset plus a
// second drain after the base table grows.
func TestNextMatchesRowAtATimeOracle(t *testing.T) {
	iters := 300
	if testing.Short() {
		iters = 40
	}
	for seed := int64(0); seed < int64(iters); seed++ {
		rng := rand.New(rand.NewSource(seed))
		nc := randNextCase(rng)
		desc := fmt.Sprintf("seed %d (%s)", seed, nc.desc)
		p := newNextPair(t, nc)
		p.drain(t, desc)

		// A partial drain, then the base table grows (and, with MVCC,
		// loses versions) before a Reset and a full second drain.
		p.reset()
		p.step(t, desc+" partial", 0)
		if nc.tbl == nc.parent {
			appendRandRows(rng, nc.parent, rng.Intn(1500), 2)
			if nc.parent.HasMVCC() {
				killRandRows(rng, nc.parent)
			}
		}
		p.reset()
		p.drain(t, desc+" second drain")
	}
}

// TestDeliveryBufferSizedToChunk: the delivery buffer is sized to the chunk
// being packed, not to BufferBytes; a view over a table that grows after
// Configure still matches a fresh view; an empty table allocates nothing.
func TestDeliveryBufferSizedToChunk(t *testing.T) {
	f := newFixture(t, 100, false)
	geom := geometry.MustGeometry(f.tbl.Schema(), 0, 2, 3)
	ev, err := f.eng.Configure(f.tbl, geom)
	if err != nil {
		t.Fatal(err)
	}
	ev.Materialize()
	if limit := 100 * ev.PackedWidth(); cap(ev.buf) > limit {
		t.Errorf("cap(buf) = %d after a 100-row view, want <= %d", cap(ev.buf), limit)
	}

	for r := 0; r < 400; r++ {
		f.tbl.MustAppend(1, table.I64(int64(1000+r)), table.I32(int32(r)), table.Str("g"),
			table.F64(float64(r)), table.I32(0))
	}
	ev.Reset()
	var got []byte
	for {
		ch, ok := ev.Next()
		if !ok {
			break
		}
		got = append(got, ch.Data...)
	}
	fresh, err := f.eng.Configure(f.tbl, geom)
	if err != nil {
		t.Fatal(err)
	}
	if want := fresh.Materialize(); !bytes.Equal(got, want) {
		t.Errorf("grown view shipped %d bytes, fresh view %d", len(got), len(want))
	}

	empty := table.MustNew("empty", f.tbl.Schema())
	ev0, err := f.eng.Configure(empty, geom)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ev0.Next(); ok {
		t.Error("zero-row table yielded a chunk")
	}
	if ev0.buf != nil {
		t.Errorf("zero-row view allocated a %d-byte buffer", cap(ev0.buf))
	}
}
