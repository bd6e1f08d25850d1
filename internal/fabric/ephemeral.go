package fabric

import (
	"bytes"
	"errors"
	"fmt"

	"rfabric/internal/dram"
	"rfabric/internal/expr"
	"rfabric/internal/geometry"
	"rfabric/internal/table"
	"rfabric/internal/vec"
)

// ViewOption configures an ephemeral view.
type ViewOption func(*viewOptions)

type viewOptions struct {
	snapshotTS  uint64
	hasSnap     bool
	preds       expr.Conjunction
	semi        *SemiJoin
	dictFilters []DictFilter
}

// WithSnapshot pins the view to an MVCC snapshot: only row versions with
// begin <= ts < end are packed. Requires a table built table.WithMVCC.
func WithSnapshot(ts uint64) ViewOption {
	return func(o *viewOptions) { o.snapshotTS = ts; o.hasSnap = true }
}

// WithSelection pushes the predicate conjunction into the fabric: only
// qualifying rows are packed and shipped (§IV-B).
func WithSelection(preds expr.Conjunction) ViewOption {
	return func(o *viewOptions) { o.preds = preds }
}

// WithSemiJoin pre-filters the view's rows against a build-side Bloom filter
// so probe rows that cannot join are dropped before they ship (the Farview
// near-memory semi-join). Rows whose key can never match (a NaN DOUBLE key)
// are dropped too.
func WithSemiJoin(sj *SemiJoin) ViewOption {
	return func(o *viewOptions) {
		if sj != nil {
			o.semi = sj
		}
	}
}

// WithDictFilter pushes a code-domain predicate over a dictionary-encoded
// column (integer codes, as compress.EncodeTableDict stores them): rows
// whose stored code is outside the qualifying set are dropped without
// decoding. The one-time dictionary translation (Entries decodes at
// DecodeCycles each) is charged to the view's first chunk, fabric-side.
func WithDictFilter(f DictFilter) ViewOption {
	return func(o *viewOptions) { o.dictFilters = append(o.dictFilters, f) }
}

// Ephemeral is a configured non-materialized column-group view of a row
// table — the paper's "ephemeral variable" (Fig. 3). Consuming it drives the
// underlying machinery: each Next call refills the on-fabric buffer with the
// next chunk of packed rows.
type Ephemeral struct {
	eng  *Engine
	tbl  *table.Table
	geom *geometry.Geometry
	opts viewOptions

	deliveryBase int64 // simulated address of the (rotating) delivery window
	chunkRows    int   // source rows scanned per buffer refill
	packed       int   // bytes per packed row

	// gatherStrides is the per-row byte ranges the fabric reads: the MVCC
	// header (when present), the geometry's columns, and any predicate-only
	// columns, merged into contiguous runs (gatherProgram); gatherBytes is
	// what they request from DRAM per row.
	gatherStrides []geometry.Stride
	gatherBytes   int
	// shipStrides is the subset of per-row ranges that are packed and
	// shipped (geometry columns only, adjacent ones merged), in pack order.
	shipStrides []geometry.Stride

	// preds are the pushed predicates' operands, unboxed once; filterBlock
	// evaluates every filter block-at-a-time, decoding each filter's column
	// into lane, which the filters share.
	preds []vec.Pred
	lane  vec.Col

	// buf is the reusable chunk buffer. It is sized on first use to the
	// chunk being packed — at most BufferBytes, as a chunk holds at most
	// chunkRows rows — and regrown only if a later chunk is larger because
	// the table grew.
	buf    []byte
	reqs   []dram.GatherReq
	cursor int // next source row to scan
	sel    []int32
	fail   []int16 // drop depths the filters record; unread here
	vis    []bool
	key    []byte

	// pendingFabricCycles/pendingDecodes hold the one-time dictionary
	// translation cost from WithDictFilter. They are consumed into the first
	// chunk rather than charged at Configure time so the cost lands inside
	// the caller's measured window (pipelines snapshot fabric stats after the
	// view is configured).
	pendingFabricCycles uint64
	pendingDecodes      uint64
}

// Chunk is one buffer refill worth of packed rows.
type Chunk struct {
	// Rows is the number of packed rows in the chunk.
	Rows int
	// Data holds Rows * PackedWidth bytes; valid until the next Next call.
	Data []byte
	// BaseAddr is the simulated address of Data[0] inside the delivery
	// window. Line i of the chunk lives at BaseAddr + i*LineBytes.
	BaseAddr int64
	// ProducerCycles is the CPU-cycle cost of producing the chunk on the
	// fabric: the DRAM gather critical path overlapped with datapath work.
	ProducerCycles uint64
	// SourceRows is how many row versions were scanned for this chunk.
	SourceRows int
}

// Configure creates an ephemeral view of geom over tbl — the software twin
// of Fig. 3's configure(the_table, QUERY). The view is positioned before the
// first row.
func (e *Engine) Configure(tbl *table.Table, geom *geometry.Geometry, opts ...ViewOption) (*Ephemeral, error) {
	if tbl == nil {
		return nil, errors.New("fabric: nil table")
	}
	if geom == nil {
		return nil, errors.New("fabric: nil geometry")
	}
	if geom.Schema() != tbl.Schema() {
		return nil, fmt.Errorf("fabric: geometry schema does not match table %q", tbl.Name())
	}
	var o viewOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.hasSnap && !tbl.HasMVCC() {
		return nil, fmt.Errorf("fabric: snapshot requested but table %q has no MVCC header", tbl.Name())
	}
	if err := o.preds.Validate(tbl.Schema()); err != nil {
		return nil, err
	}
	ncols := tbl.Schema().NumColumns()
	if sj := o.semi; sj != nil {
		if sj.Col < 0 || sj.Col >= ncols {
			return nil, fmt.Errorf("fabric: semi-join column %d out of range", sj.Col)
		}
		if sj.Filter == nil {
			return nil, errors.New("fabric: semi-join needs a Bloom filter")
		}
	}
	for _, f := range o.dictFilters {
		if f.Col < 0 || f.Col >= ncols {
			return nil, fmt.Errorf("fabric: dictionary filter column %d out of range", f.Col)
		}
		if f.Codes == nil {
			return nil, fmt.Errorf("fabric: dictionary filter on column %d has no code set", f.Col)
		}
		if !isIntFamily(tbl.Schema().Column(f.Col).Type) {
			return nil, fmt.Errorf("fabric: dictionary filter column %d does not hold integer codes", f.Col)
		}
	}

	ev := &Ephemeral{
		eng:    e,
		tbl:    tbl,
		geom:   geom,
		opts:   o,
		packed: geom.PackedWidth(),
	}
	for _, f := range o.dictFilters {
		ev.pendingFabricCycles += uint64(f.Entries) * uint64(e.cfg.DecodeCycles)
		ev.pendingDecodes += uint64(f.Entries)
	}
	ev.buildStrides()
	for _, p := range o.preds {
		ev.preds = append(ev.preds, vec.MakePred(p.Op, p.Operand))
	}

	ev.chunkRows = e.cfg.BufferBytes / ev.packed
	if ev.chunkRows < 1 {
		return nil, fmt.Errorf("fabric: packed row of %d bytes exceeds buffer of %d", ev.packed, e.cfg.BufferBytes)
	}
	ev.deliveryBase = e.arena.Alloc(int64(e.cfg.BufferBytes))
	return ev, nil
}

// buildStrides computes the gather program (what the fabric reads per row)
// and the ship program (what it packs, in pack order). Offsets are relative
// to the row's physical start (including any MVCC header).
func (ev *Ephemeral) buildStrides() {
	// Ship strides: geometry columns in pack order. Columns adjacent both in
	// the packed row and in the physical row copy as one range.
	ev.shipStrides = ev.shipStrides[:0]
	for _, c := range ev.geom.Columns() {
		off, w := ev.rowOffset(c), ev.tbl.Schema().Column(c).Width
		if n := len(ev.shipStrides); n > 0 {
			if prev := &ev.shipStrides[n-1]; prev.Offset+prev.Width == off {
				prev.Width += w
				continue
			}
		}
		ev.shipStrides = append(ev.shipStrides, geometry.Stride{Offset: off, Width: w})
	}

	// Gather strides: header + geometry + filter columns.
	cols := append([]int(nil), ev.geom.Columns()...)
	cols = append(cols, ev.opts.preds.Columns()...)
	if ev.opts.semi != nil {
		cols = append(cols, ev.opts.semi.Col)
	}
	for _, f := range ev.opts.dictFilters {
		cols = append(cols, f.Col)
	}
	ev.gatherStrides, ev.gatherBytes = gatherProgram(ev.tbl, cols, ev.eng.mem.BurstBytes())
}

// gatherProgram returns the byte ranges the fabric reads per row of tbl to
// serve cols: the MVCC header (if any) and each column, in physical order,
// coalescing ranges less than a burst apart as a gather engine programs its
// AXI bursts. It also returns the DRAM bytes they request per row, each
// range rounded out to whole bursts at its row-0 alignment.
func gatherProgram(tbl *table.Table, cols []int, burst int) ([]geometry.Stride, int) {
	sch := tbl.Schema()
	read := make([]bool, sch.NumColumns())
	for _, c := range cols {
		read[c] = true
	}
	var strides []geometry.Stride
	add := func(off, w int) {
		if n := len(strides); n > 0 {
			if prev := &strides[n-1]; off-(prev.Offset+prev.Width) < burst {
				prev.Width = off + w - prev.Offset
				return
			}
		}
		strides = append(strides, geometry.Stride{Offset: off, Width: w})
	}
	payload := 0
	if tbl.HasMVCC() {
		payload = table.MVCCHeaderBytes
		add(0, payload)
	}
	for c, ok := range read {
		if ok {
			add(payload+sch.Offset(c), sch.Column(c).Width)
		}
	}
	total := 0
	for _, s := range strides {
		first := s.Offset &^ (burst - 1)
		last := (s.Offset + s.Width - 1) &^ (burst - 1)
		total += last - first + burst
	}
	return strides, total
}

// Geometry returns the view's column group.
func (ev *Ephemeral) Geometry() *geometry.Geometry { return ev.geom }

// Table returns the base table.
func (ev *Ephemeral) Table() *table.Table { return ev.tbl }

// PackedWidth returns bytes per packed row.
func (ev *Ephemeral) PackedWidth() int { return ev.packed }

// DeliveryBase returns the simulated address of the delivery window.
func (ev *Ephemeral) DeliveryBase() int64 { return ev.deliveryBase }

// GatherBytesPerRow returns how many bytes the fabric requests from DRAM per
// scanned row, after rounding each stride up to DRAM bursts.
func (ev *Ephemeral) GatherBytesPerRow() int { return ev.gatherBytes }

// Reset repositions the view before the first row so it can be consumed
// again (a fresh query over the same configuration).
func (ev *Ephemeral) Reset() { ev.cursor = 0 }

// Next produces the next chunk of packed rows. It returns ok=false when the
// table is exhausted.
func (ev *Ephemeral) Next() (Chunk, bool) {
	if ev.cursor >= ev.tbl.NumRows() {
		return Chunk{}, false
	}
	e := ev.eng
	lineBytes := int64(e.mem.LineBytes())

	end := ev.cursor + ev.chunkRows
	if end > ev.tbl.NumRows() {
		end = ev.tbl.NumRows()
	}

	// Phase 1: issue gathers for every scanned row's strides, bounded by
	// the request-queue depth.
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

	// Phase 2: visibility, selection, code and semi-join filters, and
	// packing, block-at-a-time over the raw row bytes.
	if need := (end - ev.cursor) * ev.packed; cap(ev.buf) < need {
		ev.buf = make([]byte, 0, need)
	}
	ev.buf = ev.buf[:0]
	var fabricCycles uint64
	// Consume any one-time dictionary translation cost into this chunk.
	if ev.pendingFabricCycles > 0 {
		fabricCycles += ev.pendingFabricCycles
		e.stats.EntriesDecoded += ev.pendingDecodes
		ev.pendingFabricCycles, ev.pendingDecodes = 0, 0
	}
	var semiDropped, codeDropped uint64
	for b := ev.cursor; b < end; b += vec.BatchRows {
		cycles, codes, semi := ev.filterBlock(b, min(vec.BatchRows, end-b))
		fabricCycles += cycles
		codeDropped += codes
		semiDropped += semi
	}
	rowsShipped := len(ev.buf) / ev.packed

	// Datapath throughput: the pipeline retires RowsPerCycle row
	// descriptors or BeatBytes gathered bytes per fabric cycle, whichever
	// binds for this geometry.
	srcRows := end - ev.cursor
	gatherBytes := uint64(srcRows) * uint64(ev.GatherBytesPerRow())
	rowCycles := uint64((srcRows + e.cfg.RowsPerCycle - 1) / e.cfg.RowsPerCycle)
	beatCycles := (gatherBytes + uint64(e.cfg.BeatBytes) - 1) / uint64(e.cfg.BeatBytes)
	if beatCycles > rowCycles {
		fabricCycles += beatCycles
	} else {
		fabricCycles += rowCycles
	}
	linesShipped := (len(ev.buf) + int(lineBytes) - 1) / int(lineBytes)
	computeCPU := e.computeCPUCycles(fabricCycles)

	// The datapath overlaps with the DRAM gathers; the chunk is ready after
	// the slower of the two, plus the refill handshake.
	producer := gatherCycles
	if computeCPU > producer {
		producer = computeCPU
	}
	producer += uint64(e.cfg.RefillCycles)
	// The datapath is busy for its compute time; the rest of the producer
	// critical path is stall (waiting on gathers / the refill handshake).
	e.tl.FabricChunk(computeCPU, producer-computeCPU)

	ev.cursor = end

	e.stats.RowsScanned += uint64(srcRows)
	e.stats.RowsShipped += uint64(rowsShipped)
	e.stats.BytesShipped += uint64(len(ev.buf))
	e.stats.LinesShipped += uint64(linesShipped)
	e.stats.BytesGathered += gatherBytes
	e.stats.GatherCycles += gatherCycles
	e.stats.ComputeCycles += computeCPU
	e.stats.Chunks++
	e.stats.RowsSemiFiltered += semiDropped
	e.stats.RowsCodeFiltered += codeDropped

	return Chunk{
		Rows:           rowsShipped,
		Data:           ev.buf,
		BaseAddr:       ev.deliveryBase,
		ProducerCycles: producer,
		SourceRows:     srcRows,
	}, true
}

// Keep returns the last chunk's packed bytes for the caller to keep past
// the next Next. A chunk that fills its buffer hands the buffer over, and
// the view packs its next chunk into a new one; a shorter chunk (a pushed
// selection's, a snapshot's) is copied, so what the caller keeps holds no
// unused capacity.
func (ev *Ephemeral) Keep() []byte {
	if len(ev.buf) < cap(ev.buf) {
		return bytes.Clone(ev.buf)
	}
	b := ev.buf
	ev.buf = nil
	return b
}

// Materialize consumes the whole view and returns every packed row as a
// contiguous byte slice — the correctness-oriented API used by tests and by
// callers that want the column group as a plain buffer. It resets the view
// first.
func (ev *Ephemeral) Materialize() []byte {
	ev.Reset()
	var out []byte
	for {
		ch, ok := ev.Next()
		if !ok {
			return out
		}
		out = append(out, ch.Data...)
	}
}

func isIntFamily(t geometry.ColumnType) bool {
	return t == geometry.Int64 || t == geometry.Int32 || t == geometry.Date
}

// grow returns s resized to n elements, reallocating only when it is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// rowOffset returns column c's byte offset in a physical row, MVCC header
// included.
func (ev *Ephemeral) rowOffset(c int) int {
	off := ev.tbl.Schema().Offset(c)
	if ev.tbl.HasMVCC() {
		off += table.MVCCHeaderBytes
	}
	return off
}

// decode decodes column c of the n source rows from byte base of the
// table's data into the filters' shared lane.
func (ev *Ephemeral) decode(c, base, n int) *vec.Col {
	ev.lane.Reset(ev.tbl.Schema().Column(c), n)
	ev.lane.Decode(ev.tbl.Data(), base+ev.rowOffset(c), ev.tbl.RowStride(), n)
	return &ev.lane
}

// filterBlock runs the view's filters over the n source rows from row b and
// packs the survivors into ev.buf in row order. The stages run in a row's
// order — visibility, predicates, code filters, semi-join — and each charges
// its per-row constant times the rows that reach it, the same sums a
// row-at-a-time evaluation accumulates.
func (ev *Ephemeral) filterBlock(b, n int) (cycles, codeDropped, semiDropped uint64) {
	cfg := &ev.eng.cfg
	data := ev.tbl.Data()
	stride := ev.tbl.RowStride()
	base := b * stride
	ev.sel = grow(ev.sel, n)
	sel := ev.sel[:0]
	if ev.tbl.HasMVCC() {
		cycles += uint64(n * cfg.TSCheckCycles)
	}
	if ev.opts.hasSnap {
		ev.vis = grow(ev.vis, n)
		vec.VisibleMask(ev.vis, data, stride, b, ev.opts.snapshotTS)
		for i, ok := range ev.vis {
			if ok {
				sel = append(sel, int32(i))
			}
		}
	} else {
		for i := 0; i < n; i++ {
			sel = append(sel, int32(i))
		}
	}
	if len(ev.preds) > 0 {
		cycles += uint64(len(sel) * len(ev.preds) * cfg.PredicateCycles)
		ev.fail = grow(ev.fail, n)
		for i, p := range ev.opts.preds {
			sel = ev.decode(p.Col, base, n).Filter(&ev.preds[i], sel, ev.fail, 0)
		}
	}
	if dicts := ev.opts.dictFilters; len(dicts) > 0 {
		cycles += uint64(len(sel) * len(dicts) * cfg.PredicateCycles)
		passed := len(sel)
		for _, f := range dicts {
			codes := ev.decode(f.Col, base, n).I64
			out := sel[:0]
			for _, r := range sel {
				if f.Codes.Contains(int(codes[r])) {
					out = append(out, r)
				}
			}
			sel = out
		}
		codeDropped = uint64(passed - len(sel))
	}
	if sj := ev.opts.semi; sj != nil {
		cycles += uint64(len(sel) * cfg.PredicateCycles)
		reached := len(sel)
		key := ev.decode(sj.Col, base, n)
		out, k := sel[:0], ev.key
		for _, r := range sel {
			var ok bool
			if k, ok = key.AppendJoinKey(k[:0], r); ok && sj.Filter.MayContain(k) {
				out = append(out, r)
			}
		}
		sel, ev.key = out, k
		semiDropped = uint64(reached - len(sel))
	}
	for _, r := range sel {
		row := base + int(r)*stride
		for _, st := range ev.shipStrides {
			ev.buf = append(ev.buf, data[row+st.Offset:row+st.Offset+st.Width]...)
		}
	}
	return cycles, codeDropped, semiDropped
}
