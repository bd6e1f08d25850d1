package engine

import (
	"bytes"

	"rfabric/internal/expr"
	"rfabric/internal/geometry"
	"rfabric/internal/table"
	"rfabric/internal/vec"
)

// The batch scan path splits each engine's hot loop into batch stages:
// bulk decode of the touched columns into batch columns (vec.Col),
// predicate kernels that refine a selection vector (recording where each
// dropped row failed), a charge-replay loop that issues each row's
// Hier.Load sequence and compute charges under the charge model
// (pipeline.go), and consumption kernels over the surviving selection. The modeled cost depends only on
// the ordered Load sequence and the compute totals.
//
// scanProg is the per-query compilation of that plan: the distinct columns
// the scan touches ("slots", in first-touch order), the predicate operands
// unboxed once (vec.Pred), and — for every short-circuit outcome (failed at
// predicate d, or passed) — the slots a row with that outcome loads and
// the constant compute it charges.

// vecBatchRows is the engines' batch width.
const vecBatchRows = vec.BatchRows

// vecSlot is one distinct column the scan touches; its batch values live
// in the scratch's column of the same index.
type vecSlot struct {
	col int
	def geometry.Column
}

// vecPred is one predicate on a slot, its operand unboxed once.
type vecPred struct {
	slot int
	vec.Pred
}

// vecAgg is one aggregate term. A COUNT counts the selected rows (columns
// hold no NULLs, so its argument, loaded and charged like any other, never
// changes the count); otherwise simple >= 0 folds straight from that
// slot's column, and else the term's expression tree is evaluated over
// compacted lanes.
type vecAgg struct {
	term   AggTerm
	simple int
}

// vecCharges is a source's charge constants, the per-engine half of the
// charge model.
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

	// Consumption shape: projCols/projSlot enumerate projection entries
	// (duplicates included — each entry is charged and folded); aggs hold
	// aggregate terms; keySlots, when set, are the GROUP BY columns' slots
	// in GroupBy order, and keyCols their columns.
	projCols []int
	projSlot []int32
	aggs     []vecAgg
	keySlots []int32
	keyCols  []geometry.Column

	evalDepth int // scratch lanes needed by derived scalar evaluation
}

// vecSpec is a source's batch compilation input: the predicates the CPU
// evaluates (empty when pushed down), an explicit visit list that overrides
// the pass outcomes' column order (the COL engine touches every consumed
// column before consuming; ROW and RM touch lazily in consumption order),
// and the engine's charge constants. The scan keeps it, and compiles its
// program from it once, for the query's consumption or a join side's sink.
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
// nil the pass outcome is the query's own consumption (consumeTouches),
// plus the consumption charge. A join side passes its sink's outcomes
// instead and gets no consumption shape.
func compileScanProg(q *Query, sch *geometry.Schema, spec vecSpec, passes []passOutcome) *scanProg {
	ch := spec.ch
	p := &scanProg{}

	slotOf := make([]int, sch.NumColumns())
	for i := range slotOf {
		slotOf[i] = -1
	}
	addSlot := func(col int) int {
		if si := slotOf[col]; si >= 0 {
			return si
		}
		slotOf[col] = len(p.slots)
		p.slots = append(p.slots, vecSlot{col: col, def: sch.Column(col)})
		return len(p.slots) - 1
	}

	if passes == nil {
		cols, charge := consumeTouches(q)
		for _, col := range cols {
			addSlot(col)
		}
		p.compileConsume(q, addSlot)
		passes = []passOutcome{{cols: cols, charge: charge}}
	}
	outcomes := len(spec.sel) + len(passes)
	p.preds = make([]vecPred, 0, len(spec.sel))
	p.loadSlots = make([][]int32, 0, outcomes)
	p.charge = make([]uint64, 0, outcomes)

	// Each outcome's load program is its first-touch sequence: the columns
	// the short-circuit evaluated, then the visit list and the outcome's
	// columns.
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
		p.preds = append(p.preds, vecPred{slot: slotOf[pr.Col], Pred: vec.MakePred(pr.Op, pr.Operand)})
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
	return p
}

// compileConsume fills the program's consumption shape for q: projection
// entries (duplicates included — each entry is charged and folded), or the
// aggregate terms and GROUP BY key slots. Every consumed column already has
// a slot.
func (p *scanProg) compileConsume(q *Query, addSlot func(col int) int) {
	if len(q.Aggregates) == 0 {
		for _, col := range q.Projection {
			p.projCols = append(p.projCols, col)
			p.projSlot = append(p.projSlot, int32(addSlot(col)))
		}
		return
	}
	for _, col := range q.GroupBy {
		si := addSlot(col)
		p.keySlots = append(p.keySlots, int32(si))
		p.keyCols = append(p.keyCols, p.slots[si].def)
	}
	for _, t := range q.Aggregates {
		a := vecAgg{term: t, simple: -1}
		if t.Arg != nil {
			if ref, ok := t.Arg.(expr.ColRef); ok {
				a.simple = addSlot(ref.Col)
			} else {
				p.evalDepth = max(p.evalDepth, scalarDepth(t.Arg))
			}
		}
		p.aggs = append(p.aggs, a)
	}
}

// consumeTouches returns the columns the consumption of one row touches,
// in touch order (repeats included), and the compute it charges: the
// projection in order, each entry charged a checksum fold; or — grouped —
// the key columns first, in GroupBy order, charged one hash, then each
// aggregate's argument columns, each term charged its add and its
// expression's operations.
func consumeTouches(q *Query) ([]int, uint64) {
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

// scalarDepth returns the scratch-lane depth an expression tree needs: one
// level per Binary node on its deepest path (ColRef and Const, expr's other
// forms, need none).
func scalarDepth(s expr.Scalar) int {
	if b, ok := s.(expr.Binary); ok {
		return max(scalarDepth(b.L), scalarDepth(b.R)) + 1
	}
	return 0
}

// scanScratch is the reusable per-engine batch workspace. Engines own one
// lazily and reuse it across executions, so the steady-state batch loop
// allocates nothing.
type scanScratch struct {
	cols  []vec.Col   // the current batch's values, one column per slot
	tmp   [][]float64 // derived-scalar evaluation lanes, one per tree level
	out   []float64   // compacted derived-scalar results
	pass  vec.Col     // COL's bitmap-pass decode column
	sel   []int32
	fail  []int16
	vis   []bool
	iota  []int32  // identity selection for compacted kernels
	gids  []int32  // group id of each selected row
	extra []uint64 // a join sink's per-row compute on top of the outcome's charge
	keys  []vec.Col

	groups vec.GroupTable
}

// ensure sizes the scratch for prog: one column per slot, of its type.
func (s *scanScratch) ensure(p *scanProg) {
	for len(s.cols) < len(p.slots) {
		s.cols = append(s.cols, vec.Col{})
	}
	for i := range p.slots {
		s.cols[i].Reset(p.slots[i].def, vecBatchRows)
	}
	for len(s.tmp) < p.evalDepth {
		s.tmp = append(s.tmp, make([]float64, vecBatchRows))
	}
	if s.out == nil {
		s.out = make([]float64, vecBatchRows)
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

// decodeSlots bulk-decodes every slot's column for the n dense rows from
// row first on, each from its region in cols.
func (s *scanScratch) decodeSlots(p *scanProg, cols []region, first, n int) {
	for i := range p.slots {
		g := &cols[p.slots[i].col]
		s.cols[i].Decode(g.data, g.off+first*g.stride, g.stride, n)
	}
}

// gatherSlots decodes every slot for the scattered rows of an id-list
// batch, each column from its region in cols.
func (s *scanScratch) gatherSlots(p *scanProg, cols []region, rows []int32) {
	for i := range p.slots {
		g := &cols[p.slots[i].col]
		s.cols[i].Gather(g.data[g.off:], g.stride, rows)
	}
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
		sel = s.cols[pr.slot].Filter(&pr.Pred, sel, fail, int16(k))
	}
	return sel
}

// vecAcc is one batch run's output: the projection checksum, or the
// aggregation's fold — the ungrouped aggregate states, or the scratch's
// group table.
type vecAcc struct {
	passed   int64
	checksum uint64
	out      aggOut
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
			acc.checksum += s.cols[p.projSlot[i]].Checksum(col, sel)
		}
	case p.keySlots == nil:
		s.foldAggs(p, sel, acc.out.states)
	default:
		s.foldGroups(p, sel, acc)
	}
}

// foldAggs folds sel into the ungrouped aggregate states.
func (s *scanScratch) foldAggs(p *scanProg, sel []int32, aggs []vec.AggState) {
	for ti := range p.aggs {
		a := &p.aggs[ti]
		st := &aggs[ti]
		switch {
		case a.term.Kind == expr.Count:
			st.AddCount(int64(len(sel)))
		case a.simple >= 0:
			s.cols[a.simple].AddTo(st, sel)
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
	s.keys = s.keys[:0]
	for _, si := range p.keySlots {
		s.keys = append(s.keys, s.cols[si])
	}
	g := &s.groups
	ids := s.gids[:len(sel)]
	g.Assign(ids, s.keys, sel)

	for ti := range p.aggs {
		a := &p.aggs[ti]
		switch {
		case a.term.Kind == expr.Count:
			g.FoldCount(ti, ids)
		case a.simple >= 0:
			s.cols[a.simple].Fold(g, ti, ids, sel)
		default:
			out := s.out[:len(sel)]
			s.evalScalar(p, a.term.Arg, out, sel, 0)
			g.FoldVals(ti, ids, out)
		}
	}
}

// evalScalar evaluates a derived expression tree over the selection into
// dst, compacted. Per-row operation order matches Scalar.EvalF (left
// subtree, right subtree, combine) so float results are bit-identical.
func (s *scanScratch) evalScalar(p *scanProg, sc expr.Scalar, dst []float64, sel []int32, level int) {
	switch t := sc.(type) {
	case expr.ColRef:
		s.cols[p.slotIndex(t.Col)].Compact(dst, sel)
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
func (s *scanScratch) result(name string, q *Query, acc *vecAcc, scanned int64, part bool) *Result {
	r := &Result{Engine: name, RowsScanned: scanned, RowsPassed: acc.passed, Checksum: acc.checksum}
	r.finishAggs(acc.out, *q, part)
	return r
}

// tableSet is a fold's finished group set: its group table's keys, counts
// and states.
type tableSet struct {
	g    *vec.GroupTable
	aggs []AggTerm
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
			aggs[t] = s.g.State(int(gi), t).Result(s.aggs[t].Kind)
		}
		rows[i] = GroupRow{Key: key, Aggs: aggs, Count: s.g.Count(int(gi))}
	}
	return rows
}
