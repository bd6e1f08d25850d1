package engine

import (
	"errors"
	"slices"

	"rfabric/internal/geometry"
	"rfabric/internal/vec"
)

// Join sides stream through the shared pipeline with a sink in place of the
// consumption: each side recompiles its scan's pass outcomes for its sink.
// A build row charges HashBuildCycles and touches the side projection in
// order. A probe row charges HashProbeCycles per stage it visits, touches
// each stage's probe-side key in stage order up to the deepest stage it
// reaches, and, per full match, the consumption's probe-side columns
// (build-side values cost no load) and its fold charge.

// sideSink consumes a join side's qualifying rows in place of the scan's
// consumption.
type sideSink interface {
	// passes returns the pass outcomes a surviving row can finish with.
	passes() []passOutcome
	// batch takes one batch's surviving selection from the batch pipeline,
	// before the charge replay: it may set a row's outcome index in
	// sc.fail[i] and its extra compute in sc.extra[i].
	batch(sc *scanScratch, prog *scanProg, sel []int32)
}

// runJoinSide streams one join side through the pipeline into sink. The
// side's span and breakdown close like any scan's, so join phases reconcile
// side by side.
func runJoinSide(src Source, q *Query, label string, sink sideSink) (*Result, error) {
	sys, tr := src.sysTracer()
	sp := tr.Begin(label)
	sp.SetAttr("engine", src.Name())
	if t := src.tableLabel(); t != "" {
		sp.SetAttr("table", t)
	}
	defer tr.End()
	s, err := src.openScan(q, sp)
	if err != nil {
		return nil, err
	}
	if s.direct != nil {
		return nil, errors.New("engine: join side requires a pipeline scan (the source computed its result directly)")
	}
	s.prog = compileScanProg(q, s.sch, s.spec, sink.passes())
	s.name = src.Name()
	s.sys = sys
	s.tracer = tr
	s.sp = sp
	s.sink = sink
	return s.run(q)
}

// joinBuild is one stage's build side and its sink: every qualifying row
// is charged HashBuildCycles and touches the side projection in order;
// rows with a matchable key become entries — the projection's values,
// column by column — indexed by their join-key encoding. NaN keys are
// never inserted.
type joinBuild struct {
	proj []int      // the side projection (schema columns)
	key  int        // index into proj of the build key
	cols []valueCol // one per proj entry, indexed by entry id
	tbl  vec.JoinTable

	keyBuf []byte
	prog   *scanProg // the batch program slots resolves against
	slots  []int32   // batch rows' slot per proj entry
	ins    []int32   // batch positions inserted
}

// newJoinBuild readies the sink for a build side whose projection proj
// indexes the side's table, found at offset off of the combined schema.
func newJoinBuild(combined *geometry.Schema, off int, proj []int, key int) *joinBuild {
	b := &joinBuild{proj: proj, key: key, cols: make([]valueCol, len(proj))}
	for i, c := range proj {
		col := combined.Column(off + c)
		b.cols[i] = valueCol{typ: col.Type, width: col.Width}
	}
	return b
}

func (b *joinBuild) passes() []passOutcome {
	return []passOutcome{{cols: b.proj, charge: HashBuildCycles}}
}

func (b *joinBuild) batch(sc *scanScratch, prog *scanProg, sel []int32) {
	if b.prog != prog {
		b.prog = prog
		b.slots = b.slots[:0]
		for _, c := range b.proj {
			b.slots = append(b.slots, prog.slotIndex(c))
		}
	}
	kc := sc.keyCol(&prog.slots[b.slots[b.key]])
	ins := b.ins[:0]
	for _, r := range sel {
		var ok bool
		if b.keyBuf, ok = kc.AppendJoinKey(b.keyBuf[:0], r); ok {
			b.tbl.Insert(b.keyBuf)
			ins = append(ins, r)
		}
	}
	b.ins = ins
	for i := range b.cols {
		b.cols[i].appendRows(sc, &prog.slots[b.slots[i]], ins)
	}
}

// joinProbe is the probe side's sink. Each probe row walks the stages
// depth first — stage k looks its key up in build k and recurses into
// every match, in insertion order — and every fully matched combined row
// folds into the join's consumption, batch by batch through the
// hash-group, aggregate, and checksum kernels.
//
// The charges are HashProbeCycles per stage visit and the consumption's
// fold charge per full match, plus the probe row's first touches. Those
// touches depend only on the deepest stage the row reached — stage keys
// first-touch in stage order, consumed probe columns only after a full
// match, build-side values cost no load — so the program has one pass
// outcome per reached depth (passes), and the sink records each row's
// depth and its probe and match counts for the charge replay.
type joinProbe struct {
	p       *JoinPlan
	builds  []*joinBuild
	colSide []int
	colSlot []int
	cur     []int32 // the current entry of every stage
	keyBuf  []byte

	// cprog consumes combined rows over the plan's schema from
	// csc's lanes into acc; each cprog slot is filled from a probe lane or
	// a build column (srcs). Pending combined rows are a probe batch
	// position plus one entry per stage.
	cprog      *scanProg
	foldCharge uint64
	srcs       []combinedSrc
	keys       []stageKey
	prog       *scanProg // the bound probe program; nil until a batch arrives
	sc         *scanScratch
	csc        scanScratch
	acc        *vecAcc
	pidx       []int32
	ents       [][]int32
	depth      int
	probes     int
	matches    int
}

// combinedSrc locates a consumed combined column: build stage's column col,
// or (stage -1) the probe program's slot.
type combinedSrc struct {
	stage int
	col   int
	slot  int32
}

// stageKey is a stage's probe key: build stage's entry column when the key
// comes from an earlier build side, else (stage -1) the probe program's
// slot, refreshed per batch.
type stageKey struct {
	stage int
	slot  int32
	col   vec.KeyCol
}

func newJoinProbe(p *JoinPlan, builds []*joinBuild) *joinProbe {
	colSide, colSlot := p.layout()
	j := &joinProbe{p: p, builds: builds, colSide: colSide, colSlot: colSlot, cur: make([]int32, len(p.Stages))}
	j.cprog = compileScanProg(&p.Consume, p.Schema, vecSpec{}, nil)
	j.csc.ensure(j.cprog)
	j.acc = j.csc.begin(j.cprog)
	_, j.foldCharge = consumeTouches(&p.Consume)
	for _, sl := range j.cprog.slots {
		s := colSide[sl.col]
		j.srcs = append(j.srcs, combinedSrc{stage: s - 1, col: colSlot[sl.col]})
	}
	j.keys = make([]stageKey, len(p.Stages))
	for k, st := range p.Stages {
		sk := stageKey{stage: colSide[st.ProbeKey] - 1}
		if sk.stage >= 0 {
			sk.col = builds[sk.stage].cols[colSlot[st.ProbeKey]].keyCol()
		}
		j.keys[k] = sk
	}
	j.ents = make([][]int32, len(p.Stages))
	return j
}

// passes returns one outcome per reached depth d: stages 0..d's probe-side
// keys for d below the stage count, every key and then the consumed probe
// columns for a full match. The probe and fold charges ride in sc.extra.
func (j *joinProbe) passes() []passOutcome {
	n := len(j.p.Stages)
	out := make([]passOutcome, n+1)
	var cols []int
	for k, st := range j.p.Stages {
		if j.colSide[st.ProbeKey] == 0 {
			cols = append(cols, st.ProbeKey)
		}
		out[k].cols = slices.Clone(cols)
	}
	consumed, _ := consumeTouches(&j.p.Consume)
	for _, c := range consumed {
		if j.colSide[c] == 0 {
			cols = append(cols, c)
		}
	}
	out[n].cols = cols
	return out
}

func (j *joinProbe) batch(sc *scanScratch, prog *scanProg, sel []int32) {
	if j.prog != prog {
		j.bind(prog)
	}
	j.sc = sc
	for k := range j.keys {
		if sk := &j.keys[k]; sk.stage < 0 {
			sk.col = sc.keyCol(&prog.slots[sk.slot])
		}
	}
	base := int16(len(prog.preds))
	for _, i := range sel {
		j.depth, j.probes, j.matches = 0, 0, 0
		j.descend(0, i)
		sc.fail[i] = base + int16(j.depth)
		sc.extra[i] = uint64(j.probes)*HashProbeCycles + uint64(j.matches)*j.foldCharge
	}
	j.flush()
}

// bind resolves the probe program's slots on the first batch.
func (j *joinProbe) bind(prog *scanProg) {
	j.prog = prog
	for k := range j.keys {
		if sk := &j.keys[k]; sk.stage < 0 {
			sk.slot = prog.slotIndex(j.p.Stages[k].ProbeKey)
		}
	}
	for i := range j.srcs {
		if src := &j.srcs[i]; src.stage < 0 {
			src.slot = prog.slotIndex(src.col)
		}
	}
}

// descend walks stage k for probe batch position i: it records the depth,
// stage visits, and full matches, and queues every combined row.
func (j *joinProbe) descend(k int, i int32) {
	j.depth = max(j.depth, k)
	if k == len(j.p.Stages) {
		j.matches++
		j.pidx = append(j.pidx, i)
		for s := range j.ents {
			j.ents[s] = append(j.ents[s], j.cur[s])
		}
		if len(j.pidx) == vecBatchRows {
			j.flush()
		}
		return
	}
	j.probes++
	sk := &j.keys[k]
	r := i
	if sk.stage >= 0 {
		r = j.cur[sk.stage]
	}
	var ok bool
	if j.keyBuf, ok = sk.col.AppendJoinKey(j.keyBuf[:0], r); !ok {
		return
	}
	t := &j.builds[k].tbl
	for e := t.Find(j.keyBuf); e >= 0; e = t.Next(e) {
		j.cur[k] = e
		j.descend(k+1, i)
	}
}

// flush gathers the pending combined rows into the consumption lanes and
// folds them, in emission order.
func (j *joinProbe) flush() {
	m := len(j.pidx)
	if m == 0 {
		return
	}
	for si := range j.cprog.slots {
		sl := &j.cprog.slots[si]
		src := &j.srcs[si]
		if src.stage >= 0 {
			j.builds[src.stage].cols[src.col].take(&j.csc, sl, j.ents[src.stage])
			continue
		}
		ps := &j.prog.slots[src.slot]
		switch sl.kind {
		case slotI64, slotI32:
			vec.TakeI64(j.csc.i64[sl.lane], j.sc.i64[ps.lane], j.pidx)
		case slotF64:
			vec.TakeF64(j.csc.f64[sl.lane], j.sc.f64[ps.lane], j.pidx)
		case slotChar:
			c := &j.sc.chr[ps.lane]
			j.csc.gatherChar(sl, c.src[c.off:], c.stride, j.pidx)
		}
	}
	j.csc.consume(j.cprog, j.csc.iota[:m], j.acc)
	j.pidx = j.pidx[:0]
	for s := range j.ents {
		j.ents[s] = j.ents[s][:0]
	}
}

// result is the join's consumed result, finished under the consume
// query's sinks, or kept unfinished for a partition's merge (see
// finishAggs).
func (j *joinProbe) result(name string, scanned int64, part bool) *Result {
	return j.csc.result(name, &j.p.Consume, j.acc, scanned, part)
}
