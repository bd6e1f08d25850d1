package engine

import (
	"bytes"
	"slices"

	"rfabric/internal/expr"
	"rfabric/internal/geometry"
	"rfabric/internal/table"
	"rfabric/internal/vec"
)

// The vectorized scan path splits each engine's hot loop into batch stages:
// bulk decode of the touched columns into typed lanes, predicate kernels
// that refine a selection vector (recording where each dropped row failed),
// a charge-replay loop that issues the *exact* per-row Hier.Load sequence
// and compute charges of the scalar interpreter, and consumption kernels
// over the surviving selection. The modeled cost depends only on the
// ordered Load sequence and the compute totals, and the replay reproduces
// both — same order, same counts — so Breakdown, spans, and timelines are
// unchanged; only wall-clock time and allocations drop.
//
// scanProg is the per-query compilation of that plan: the distinct columns
// the scan touches ("slots", in first-touch order), the predicate operands
// pre-unboxed per type, and — for every short-circuit outcome (failed at
// predicate d, or passed) — the slots the scalar path would have loaded and
// the constant compute charge it would have accumulated.

// vecBatchRows is the engines' batch width.
const vecBatchRows = vec.BatchRows

type slotKind uint8

const (
	slotI64 slotKind = iota
	slotI32
	slotF64
	slotChar
)

// vecSlot is one distinct column the scan touches.
type vecSlot struct {
	col   int
	typ   geometry.ColumnType
	kind  slotKind
	width int
	lane  int // index into the scratch lane pool of the slot's kind
}

// vecPred is one predicate with its operand pre-unboxed.
type vecPred struct {
	slot int
	op   expr.CmpOp
	opI  int64
	opF  float64
	opB  []byte // TrimPad-ed CHAR operand
}

// vecAgg is one aggregate term. A COUNT counts the selected rows (columns
// hold no NULLs, so its argument, loaded and charged like any other, never
// changes the count); otherwise simple >= 0 folds straight from that
// slot's lane, and else the term's scalar tree is evaluated over compacted
// lanes.
type vecAgg struct {
	term   AggTerm
	simple int
}

// vecCharges parameterizes the per-engine scalar cost constants the replay
// reproduces.
type vecCharges struct {
	perRow   uint64 // charged per visited row (VolcanoNextCycles for ROW, 0 for RM/COL)
	predEval uint64 // per predicate evaluation
	fetch    uint64 // per first column touch of a row
}

var (
	rowVecCharges = vecCharges{perRow: VolcanoNextCycles, predEval: PredEvalCycles, fetch: ExtractCycles}
	rmVecCharges  = vecCharges{perRow: 0, predEval: VectorOpCycles, fetch: VectorOpCycles}
	colVecCharges = vecCharges{perRow: 0, predEval: 0, fetch: VectorOpCycles}
	idxVecCharges = vecCharges{perRow: 0, predEval: PredEvalCycles, fetch: ExtractCycles}
)

type scanProg struct {
	slots []vecSlot
	preds []vecPred

	// loadSlots[d] is the ordered first-touch load program of a row that
	// fails at predicate d (d < len(preds)) or passes (d >= len(preds)):
	// slot indices, which the segment's layout turns into addresses.
	// charge[d] is the matching constant compute charge (predicate evals +
	// column fetches + consumption for the pass case).
	loadSlots [][]int32
	charge    []uint64
	perRow    uint64

	// Consumption shape: projCols/projSlot enumerate projection entries
	// (duplicates included — each entry is charged and folded); aggs hold
	// aggregate terms; keySlots, when set, are the GROUP BY columns' slots
	// in GroupBy order, and keyCols their columns.
	projCols []int
	projSlot []int32
	aggs     []vecAgg
	keySlots []int32
	keyCols  []geometry.Column

	nI64, nF64, nChr int // lane counts by type
	evalDepth        int // scratch lanes needed by derived scalar evaluation
}

// vecSpec is a source's batch compilation input: the predicates the CPU
// evaluates (empty when pushed down), an explicit visit list that overrides
// the pass outcomes' column order (the COL engine touches every consumed
// column before consuming; ROW and RM touch lazily in consumption order),
// and the engine's charge constants. The scan keeps it so a join side can
// recompile its pass outcomes for the build or probe sink.
type vecSpec struct {
	sel   expr.Conjunction
	visit []int
	ch    vecCharges
}

// passOutcome is one way a row that survives the CPU predicates can finish:
// the columns it first-touches after the visit list, in order (repeats are
// free), and the compute it charges on top of its predicate evaluations and
// column fetches.
type passOutcome struct {
	cols   []int
	charge uint64
}

// compileScanProg builds the batch plan for a query over sch. With passes
// nil the pass outcome is the query's own consumption: the projection in
// order, or — grouped — the key columns first, in GroupBy order, then the
// aggregate arguments (the order consumer.consumeRow fetches them), plus
// the consumption charge. A join side passes its sink's outcomes instead
// and gets no consumption shape. ok is false when an aggregate uses a
// scalar expression form the lane evaluator does not know.
func compileScanProg(q Query, sch *geometry.Schema, spec vecSpec, passes []passOutcome) (*scanProg, bool) {
	ch := spec.ch
	p := &scanProg{perRow: ch.perRow}

	slotOf := make([]int, sch.NumColumns())
	for i := range slotOf {
		slotOf[i] = -1
	}
	addSlot := func(col int) int {
		if si := slotOf[col]; si >= 0 {
			return si
		}
		c := sch.Column(col)
		s := vecSlot{col: col, typ: c.Type, width: c.Width}
		switch c.Type {
		case geometry.Int64:
			s.kind = slotI64
			s.lane = p.nI64
			p.nI64++
		case geometry.Int32, geometry.Date:
			s.kind = slotI32
			s.lane = p.nI64
			p.nI64++
		case geometry.Float64:
			s.kind = slotF64
			s.lane = p.nF64
			p.nF64++
		case geometry.Char:
			s.kind = slotChar
			s.lane = p.nChr
			p.nChr++
		}
		slotOf[col] = len(p.slots)
		p.slots = append(p.slots, s)
		return len(p.slots) - 1
	}

	if passes == nil {
		cols, charge := consumeTouches(q)
		for _, col := range cols {
			addSlot(col)
		}
		if !p.compileConsume(q, addSlot) {
			return nil, false
		}
		passes = []passOutcome{{cols: cols, charge: charge}}
	}
	outcomes := len(spec.sel) + len(passes)
	p.preds = make([]vecPred, 0, len(spec.sel))
	p.loadSlots = make([][]int32, 0, outcomes)
	p.charge = make([]uint64, 0, outcomes)

	// Each outcome's load program is the scalar first-touch sequence: the
	// columns the short-circuit evaluated, then the visit list and the
	// outcome's columns.
	touched := make([]bool, sch.NumColumns())
	var seq []int32
	touch := func(col int) {
		if !touched[col] {
			touched[col] = true
			seq = append(seq, int32(addSlot(col)))
		}
	}
	emit := func(charge uint64) {
		ls := append([]int32(nil), seq...)
		p.loadSlots = append(p.loadSlots, ls)
		p.charge = append(p.charge, charge+uint64(len(ls))*ch.fetch)
	}
	for d, pr := range spec.sel {
		touch(pr.Col)
		si := slotOf[pr.Col]
		vp := vecPred{slot: si, op: pr.Op}
		switch p.slots[si].kind {
		case slotI64, slotI32:
			vp.opI = pr.Operand.Int
		case slotF64:
			vp.opF = pr.Operand.Float
		case slotChar:
			vp.opB = vec.TrimPad(pr.Operand.Bytes)
		}
		p.preds = append(p.preds, vp)
		emit(uint64(d+1) * ch.predEval)
	}

	predTouched := append([]bool(nil), touched...)
	predSeq := len(seq)
	for _, out := range passes {
		copy(touched, predTouched)
		seq = seq[:predSeq]
		for _, col := range spec.visit {
			touch(col)
		}
		for _, col := range out.cols {
			touch(col)
		}
		emit(uint64(len(spec.sel))*ch.predEval + out.charge)
	}
	return p, true
}

// compileConsume fills the program's consumption shape for q: projection
// entries (duplicates included — each entry is charged and folded), or the
// aggregate terms and GROUP BY key slots. Every consumed column already has
// a slot.
func (p *scanProg) compileConsume(q Query, addSlot func(col int) int) bool {
	if len(q.Aggregates) == 0 {
		for _, col := range q.Projection {
			p.projCols = append(p.projCols, col)
			p.projSlot = append(p.projSlot, int32(addSlot(col)))
		}
		return true
	}
	for _, col := range q.GroupBy {
		si := addSlot(col)
		p.keySlots = append(p.keySlots, int32(si))
		p.keyCols = append(p.keyCols, geometry.Column{Type: p.slots[si].typ, Width: p.slots[si].width})
	}
	for _, t := range q.Aggregates {
		a := vecAgg{term: t, simple: -1}
		if t.Arg != nil {
			if ref, ok := t.Arg.(expr.ColRef); ok {
				a.simple = addSlot(ref.Col)
			} else {
				d, ok := scalarDepth(t.Arg)
				if !ok {
					return false
				}
				p.evalDepth = max(p.evalDepth, d)
			}
		}
		p.aggs = append(p.aggs, a)
	}
	return true
}

// consumeTouches returns the columns consumer.consumeRow fetches for one
// row, in fetch order (repeats included), and the compute it charges.
func consumeTouches(q Query) ([]int, uint64) {
	if len(q.Aggregates) == 0 {
		return q.Projection, uint64(len(q.Projection)) * ChecksumCycles
	}
	var cols []int
	var charge uint64
	if len(q.GroupBy) > 0 {
		cols = append(cols, q.GroupBy...)
		charge += HashGroupCycles
	}
	for _, t := range q.Aggregates {
		charge += AggAddCycles
		if t.Arg != nil {
			charge += uint64(t.Arg.Ops() * ScalarOpCycles)
			cols = append(cols, t.Arg.Columns()...)
		}
	}
	return cols, charge
}

// scalarDepth returns the scratch-lane depth a scalar tree needs, and
// whether the lane evaluator understands every node.
func scalarDepth(s expr.Scalar) (int, bool) {
	switch t := s.(type) {
	case expr.ColRef, expr.Const:
		return 0, true
	case expr.Binary:
		dl, okL := scalarDepth(t.L)
		dr, okR := scalarDepth(t.R)
		if !okL || !okR {
			return 0, false
		}
		d := dl
		if dr > d {
			d = dr
		}
		return d + 1, true
	default:
		return 0, false
	}
}

// scanScratch is the reusable per-engine batch workspace. Engines own one
// lazily and reuse it across executions, so the steady-state batch loop
// allocates nothing.
type scanScratch struct {
	i64   [][]int64
	f64   [][]float64
	chr   []charLane  // CHAR slots' fields for the current batch
	tmp   [][]float64 // derived-scalar evaluation lanes, one per tree level
	out   []float64   // compacted derived-scalar results
	pred  []int64     // integer decode buffer for COL bitmap passes
	sel   []int32
	fail  []int16
	vis   []bool
	iota  []int32  // identity selection for compacted kernels
	gids  []int32  // group id of each selected row
	extra []uint64 // a join sink's per-row compute on top of the outcome's charge
	keys  []vec.KeyCol

	groups vec.GroupTable
}

// charLane locates a CHAR slot's field for batch row i at
// src[off+i*stride:]: in place in a strided segment, or in buf (grown on
// first use) when the batch was gathered from scattered rows.
type charLane struct {
	src         []byte
	off, stride int
	buf         []byte
}

// ensure grows the scratch to fit prog.
func (s *scanScratch) ensure(p *scanProg) {
	for len(s.i64) < p.nI64 {
		s.i64 = append(s.i64, make([]int64, vecBatchRows))
	}
	for len(s.f64) < p.nF64 {
		s.f64 = append(s.f64, make([]float64, vecBatchRows))
	}
	for len(s.chr) < p.nChr {
		s.chr = append(s.chr, charLane{})
	}
	for len(s.tmp) < p.evalDepth {
		s.tmp = append(s.tmp, make([]float64, vecBatchRows))
	}
	if s.out == nil {
		s.out = make([]float64, vecBatchRows)
		s.pred = make([]int64, vecBatchRows)
		s.sel = make([]int32, 0, vecBatchRows)
		s.fail = make([]int16, vecBatchRows)
		s.vis = make([]bool, vecBatchRows)
		s.gids = make([]int32, vecBatchRows)
		s.extra = make([]uint64, vecBatchRows)
		s.iota = make([]int32, vecBatchRows)
		for i := range s.iota {
			s.iota[i] = int32(i)
		}
	}
}

// decodeSlots bulk-decodes every numeric slot's lane for the n dense rows
// from row first on, each column from its region in cols; CHAR slots are
// read in place.
func (s *scanScratch) decodeSlots(p *scanProg, cols []region, first, n int) {
	for i := range p.slots {
		sl := &p.slots[i]
		g := &cols[sl.col]
		off := g.off + first*g.stride
		switch sl.kind {
		case slotI64:
			vec.DecodeI64(s.i64[sl.lane][:n], g.data, off, g.stride, n)
		case slotI32:
			vec.DecodeI32(s.i64[sl.lane][:n], g.data, off, g.stride, n)
		case slotF64:
			vec.DecodeF64(s.f64[sl.lane][:n], g.data, off, g.stride, n)
		case slotChar:
			c := &s.chr[sl.lane]
			c.src, c.off, c.stride = g.data, off, g.stride
		}
	}
}

// gatherSlots decodes every slot for the scattered rows of an id-list
// batch, each column from its region in cols.
func (s *scanScratch) gatherSlots(p *scanProg, cols []region, rows []int32) {
	for i := range p.slots {
		sl := &p.slots[i]
		g := &cols[sl.col]
		s.gatherSlot(sl, g.data[g.off:], g.stride, rows)
	}
}

// gatherSlot compacts one slot's values of rows (row r's field at
// src[r*stride:]) into its lane; CHAR fields are copied into the lane's
// buffer.
func (s *scanScratch) gatherSlot(sl *vecSlot, src []byte, stride int, rows []int32) {
	m := len(rows)
	switch sl.kind {
	case slotI64:
		vec.GatherI64(s.i64[sl.lane][:m], src, stride, rows)
	case slotI32:
		vec.GatherI32(s.i64[sl.lane][:m], src, stride, rows)
	case slotF64:
		vec.GatherF64(s.f64[sl.lane][:m], src, stride, rows)
	case slotChar:
		s.gatherChar(sl, src, stride, rows)
	}
}

// gatherChar copies a CHAR slot's fields of rows (row r's field at
// src[r*stride:]) into the lane's buffer, grown on first use.
func (s *scanScratch) gatherChar(sl *vecSlot, src []byte, stride int, rows []int32) {
	c := &s.chr[sl.lane]
	if len(c.buf) < vecBatchRows*sl.width {
		c.buf = make([]byte, vecBatchRows*sl.width)
	}
	vec.GatherBytes(c.buf, src, stride, sl.width, rows)
	c.src, c.off, c.stride = c.buf, 0, sl.width
}

// keyCol views a slot's lane for the batch as a hash-key column.
func (s *scanScratch) keyCol(sl *vecSlot) vec.KeyCol {
	k := vec.KeyCol{Kind: vec.KeyInt, Width: sl.width}
	switch sl.kind {
	case slotI64, slotI32:
		k.I64 = s.i64[sl.lane]
	case slotF64:
		k.Kind, k.F64 = vec.KeyFloat, s.f64[sl.lane]
	case slotChar:
		c := &s.chr[sl.lane]
		k.Kind, k.Src, k.Off, k.Stride = vec.KeyChar, c.src, c.off, c.stride
	}
	return k
}

// sinkBatch hands a batch's surviving selection to a join sink and returns
// the per-row extra compute it set (nil without a sink). Survivors keep
// fail -1 (the pass outcome) unless the sink picks another.
func (s *scanScratch) sinkBatch(sink sideSink, p *scanProg, sel []int32, n int) []uint64 {
	if sink == nil {
		return nil
	}
	extra := s.extra[:n]
	clear(extra)
	sink.batch(s, p, sel)
	return extra
}

// refine runs the predicate kernels over a decoded batch of n rows,
// narrowing sel and recording each dropped row's failing depth.
func (s *scanScratch) refine(p *scanProg, n int, sel []int32) []int32 {
	fail := s.fail[:n]
	for i := range fail {
		fail[i] = -1
	}
	for k := range p.preds {
		pr := &p.preds[k]
		sl := &p.slots[pr.slot]
		switch sl.kind {
		case slotI64, slotI32:
			sel = vec.FilterI64(s.i64[sl.lane][:n], pr.op, pr.opI, sel, fail, int16(k))
		case slotF64:
			sel = vec.FilterF64(s.f64[sl.lane][:n], pr.op, pr.opF, sel, fail, int16(k))
		case slotChar:
			c := &s.chr[sl.lane]
			sel = vec.FilterChar(c.src, c.off, c.stride, sl.width, pr.op, pr.opB, sel, fail, int16(k))
		}
	}
	return sel
}

// vecAcc is one batch run's output: the projection checksum, or the
// aggregation's fold — the scalar aggregate states, or the scratch's group
// table.
type vecAcc struct {
	passed   int64
	checksum uint64
	out      aggOut
}

// valueCol is a column of values detached from their source buffers:
// integer-family values in i64, DOUBLE in f64, CHAR fields back to back in
// chr. Join build sides keep their values this way.
type valueCol struct {
	typ   geometry.ColumnType
	width int
	i64   []int64
	f64   []float64
	chr   []byte
}

func (c *valueCol) append(v table.Value) {
	switch c.typ {
	case geometry.Float64:
		c.f64 = append(c.f64, v.Float)
	case geometry.Char:
		c.chr = append(c.chr, v.Bytes[:c.width]...)
	default:
		c.i64 = append(c.i64, v.Int)
	}
}

// appendRows appends the batch rows' values of a slot with the column's
// type.
func (c *valueCol) appendRows(s *scanScratch, sl *vecSlot, rows []int32) {
	switch sl.kind {
	case slotI64, slotI32:
		lane := s.i64[sl.lane]
		c.i64 = slices.Grow(c.i64, len(rows))
		for _, r := range rows {
			c.i64 = append(c.i64, lane[r])
		}
	case slotF64:
		lane := s.f64[sl.lane]
		c.f64 = slices.Grow(c.f64, len(rows))
		for _, r := range rows {
			c.f64 = append(c.f64, lane[r])
		}
	case slotChar:
		cl := &s.chr[sl.lane]
		c.chr = slices.Grow(c.chr, len(rows)*c.width)
		for _, r := range rows {
			o := cl.off + int(r)*cl.stride
			c.chr = append(c.chr, cl.src[o:o+c.width]...)
		}
	}
}

// value boxes value i the way the scalar fetch decodes it; a CHAR value's
// bytes are a capacity-capped view of the column.
func (c *valueCol) value(i int32) table.Value {
	v := table.Value{Type: c.typ}
	switch c.typ {
	case geometry.Float64:
		v.Float = c.f64[i]
	case geometry.Char:
		o := int(i) * c.width
		v.Bytes = c.chr[o : o+c.width : o+c.width]
	default:
		v.Int = c.i64[i]
	}
	return v
}

// keyCol views the column as a hash-key column indexed by value position.
func (c *valueCol) keyCol() vec.KeyCol {
	switch c.typ {
	case geometry.Float64:
		return vec.KeyCol{Kind: vec.KeyFloat, F64: c.f64}
	case geometry.Char:
		return vec.KeyCol{Kind: vec.KeyChar, Src: c.chr, Stride: c.width, Width: c.width}
	default:
		return vec.KeyCol{Kind: vec.KeyInt, I64: c.i64}
	}
}

// take copies the values at positions idx into a slot's lane.
func (c *valueCol) take(s *scanScratch, sl *vecSlot, idx []int32) {
	switch sl.kind {
	case slotI64, slotI32:
		vec.TakeI64(s.i64[sl.lane], c.i64, idx)
	case slotF64:
		vec.TakeF64(s.f64[sl.lane], c.f64, idx)
	case slotChar:
		s.gatherChar(sl, c.chr, c.width, idx)
	}
}

// begin resets the scratch's run state and returns the run's accumulator.
func (s *scanScratch) begin(p *scanProg) *vecAcc {
	acc := &vecAcc{}
	switch {
	case p.keySlots != nil:
		s.groups.Reset(len(p.aggs), p.keyCols)
		acc.out.groups = &s.groups
	case len(p.aggs) > 0:
		acc.out.states = make([]vec.AggState, len(p.aggs))
	}
	return acc
}

// consume folds the surviving selection of one decoded batch into the
// run's output: projection checksums, aggregate states, or group states.
func (s *scanScratch) consume(p *scanProg, sel []int32, acc *vecAcc) {
	acc.passed += int64(len(sel))
	if len(sel) == 0 {
		return
	}
	switch {
	case p.aggs == nil:
		for i, col := range p.projCols {
			sl := &p.slots[p.projSlot[i]]
			switch sl.kind {
			case slotI64, slotI32:
				acc.checksum += vec.ChecksumI64(col, s.i64[sl.lane], sel)
			case slotF64:
				acc.checksum += vec.ChecksumF64(col, s.f64[sl.lane], sel)
			case slotChar:
				c := &s.chr[sl.lane]
				acc.checksum += vec.ChecksumChar(col, c.src, c.off, c.stride, sl.width, sel)
			}
		}
	case p.keySlots == nil:
		s.foldAggs(p, sel, acc.out.states)
	default:
		s.foldGroups(p, sel, acc)
	}
}

// foldAggs folds sel into the scalar aggregate states.
func (s *scanScratch) foldAggs(p *scanProg, sel []int32, aggs []vec.AggState) {
	for ti := range p.aggs {
		a := &p.aggs[ti]
		st := &aggs[ti]
		switch {
		case a.term.Kind == expr.Count:
			st.AddCount(int64(len(sel)))
		case a.simple >= 0:
			sl := &p.slots[a.simple]
			if sl.kind == slotF64 {
				vec.AddF64(st, s.f64[sl.lane], sel)
			} else {
				vec.AddI64(st, s.i64[sl.lane], sel)
			}
		default:
			out := s.out[:len(sel)]
			s.evalScalar(p, a.term.Arg, out, sel, 0)
			vec.AddVals(st, out)
		}
	}
}

// foldGroups maps sel to group ids through the hash-group kernel and folds
// every term into the selected rows' group states.
func (s *scanScratch) foldGroups(p *scanProg, sel []int32, acc *vecAcc) {
	keys := s.keys[:0]
	for _, si := range p.keySlots {
		keys = append(keys, s.keyCol(&p.slots[si]))
	}
	s.keys = keys

	g := &s.groups
	ids := s.gids[:len(sel)]
	g.Assign(ids, keys, sel)

	for ti := range p.aggs {
		a := &p.aggs[ti]
		switch {
		case a.term.Kind == expr.Count:
			g.FoldCount(ti, ids)
		case a.simple >= 0:
			sl := &p.slots[a.simple]
			if sl.kind == slotF64 {
				g.FoldF64(ti, ids, s.f64[sl.lane], sel)
			} else {
				g.FoldI64(ti, ids, s.i64[sl.lane], sel)
			}
		default:
			out := s.out[:len(sel)]
			s.evalScalar(p, a.term.Arg, out, sel, 0)
			g.FoldVals(ti, ids, out)
		}
	}
}

// evalScalar evaluates a derived scalar tree over the selection into dst,
// compacted. Per-row operation order matches Scalar.EvalF (left subtree,
// right subtree, combine) so float results are bit-identical.
func (s *scanScratch) evalScalar(p *scanProg, sc expr.Scalar, dst []float64, sel []int32, level int) {
	switch t := sc.(type) {
	case expr.ColRef:
		sl := &p.slots[p.slotIndex(t.Col)]
		if sl.kind == slotF64 {
			vec.CompactLaneF64(dst, s.f64[sl.lane], sel)
		} else {
			vec.CompactLaneI64(dst, s.i64[sl.lane], sel)
		}
	case expr.Const:
		vec.FillF64(dst, t.V)
	case expr.Binary:
		s.evalScalar(p, t.L, dst, sel, level)
		tmp := s.tmp[level][:len(dst)]
		s.evalScalar(p, t.R, tmp, sel, level+1)
		switch t.Op {
		case expr.Add:
			vec.AddLanes(dst, tmp)
		case expr.Sub:
			vec.SubLanes(dst, tmp)
		case expr.Mul:
			vec.MulLanes(dst, tmp)
		}
	}
}

// slotIndex resolves a column to its slot; compile guarantees presence.
func (p *scanProg) slotIndex(col int) int32 {
	for i := range p.slots {
		if p.slots[i].col == col {
			return int32(i)
		}
	}
	panic("engine: vectorized scan references an uncompiled column")
}

// result builds the run's Result, finishing its fold (finishAggs) under the
// statement's sinks, or keeping it for a partition's merge.
func (s *scanScratch) result(name string, q Query, acc *vecAcc, scanned int64, part bool) *Result {
	r := &Result{Engine: name, RowsScanned: scanned, RowsPassed: acc.passed, Checksum: acc.checksum}
	r.finishAggs(acc.out, q, part)
	return r
}

// tableSet is a fold's finished group set: its group table's keys, counts
// and states.
type tableSet struct {
	g    *vec.GroupTable
	aggs []AggTerm
}

func (s *tableSet) key(g int32, k int) table.Value { return s.g.KeyValue(int(g), k) }

func (s *tableSet) agg(g int32, t int) table.Value {
	return s.g.State(int(g), t).Result(s.aggs[t].Kind)
}

// canon is the canonical group order over group ids.
func (s *tableSet) canon(a, b int32) int {
	return bytes.Compare(s.g.Key(int(a)), s.g.Key(int(b)))
}

// rows boxes the groups at order's ids, in that order, slab-allocating the
// rows, their keys, and their aggregate values.
func (s *tableSet) rows(order []int32) []GroupRow {
	n, nk, na := len(order), len(s.g.KeyColumns()), len(s.aggs)
	if n == 0 {
		return nil
	}
	rows := make([]GroupRow, n)
	keyVals := make([]table.Value, n*nk)
	s.g.KeyValues(keyVals, order)
	vals := make([]table.Value, n*na)
	for i, gi := range order {
		key := keyVals[i*nk : (i+1)*nk : (i+1)*nk]
		aggs := vals[i*na : (i+1)*na : (i+1)*na]
		for t := range aggs {
			aggs[t] = s.agg(gi, t)
		}
		rows[i] = GroupRow{Key: key, Aggs: aggs, Count: s.g.Count(int(gi))}
	}
	return rows
}
