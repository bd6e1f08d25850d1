package engine

import (
	"math"
	"runtime"

	"rfabric/internal/cache"
	"rfabric/internal/colstore"
	"rfabric/internal/expr"
	"rfabric/internal/geometry"
	"rfabric/internal/table"
	"rfabric/internal/vec"
)

// The batch executor. It processes vecBatchRows rows per iteration in four
// stages — visibility, bulk decode, selection refinement, charge replay —
// then consumes the survivors through typed kernels. The charge-replay
// stage issues, row by row, the loads and compute of the charge model in
// pipeline.go: the per-row short-circuit outcome, decided by the recorded
// fail depth, selects a precompiled load program. The loads are recorded
// as strided runs and charged to the hierarchy by the scan's replay
// goroutine (see loadBuf), so batch k's cache simulation runs on another
// core while the pipeline decodes, refines, sinks, and consumes batch k+1.
// It is written once and parameterized by the opened scan: ROW feeds it
// one strided segment (with MVCC replay and per-row ticks), RM feeds it
// fabric chunks with pipeline accounting, IDX feeds it its candidate row
// ids over the strided heap, and COL feeds it the qualifying row ids of
// its bitmap selection passes (its prepare hook, colBitmapPasses) over the
// column arrays, or every row when nothing is selected. Each segment
// states where its columns live (segment.cols), so decode, gather and load
// programs read one layout whatever the source.

// loadBuf collects the charge replay's loads as strided runs, in row
// order, and hands them to the scan's replay goroutine, which charges each
// submitted buffer to the hierarchy with LoadRuns, in FIFO order. The
// replay records a row's loads as one step of a load program: a list of
// (base, stride) streams, one per load, from which the row's index selects
// the addresses. Rows that run the same program at successive indices —
// the rows of a segment that share an outcome, a COL selection pass, COL's
// reconstruction of adjacent rows — extend one run, so the hierarchy sees
// the strides and walks them.
//
// The hierarchy has one owner at a time. submit passes it to the goroutine
// along with a buffer; flush takes it back, waiting for the goroutine, and
// replays the pending remainder inline. Whatever reads hierarchy or DRAM
// state, or lets another component touch them (Hier.Stats, a timeline
// tick, the fabric's next chunk, the scan's result), flushes first, and
// nothing between a submit and the next flush touches the scan's System.
// The hierarchy thus sees the same addresses in the same order as an
// inline replay, one goroutine at a time, with every hand-off ordered by a
// channel operation; LoadRuns' return value is never read (costs come
// from Hier.Stats after a flush), so no modeled figure can change. On the
// demand paths a timeline's per-row ticks flush at every row, so their
// traced scans keep replaying inline.
type loadBuf struct {
	sys     *System
	hier    *cache.Hierarchy
	r       *replayer // the scan's hand-off; nil until first needed
	running bool      // r's goroutine is started
	buf     *runBuf   // the buffer being filled
	spare   *runBuf   // the other buffer, unless busy
	busy    bool      // the other buffer is at the goroutine
	// open is the first stream of the program buf's last run was opened
	// with, while a step at index next may extend that run; nil when none
	// may.
	open *cache.Stream
	next int64
}

// runBuf is one hand-off: runs over streams (see cache.LoadRuns) that hold
// loads loads.
type runBuf struct {
	runs    []cache.Run
	streams []cache.Stream
	loads   int
}

func (rb *runBuf) reset() {
	rb.runs, rb.streams, rb.loads = rb.runs[:0], rb.streams[:0], 0
}

// replayBufLoads caps the loads of one hand-off; a batch that issues more
// submits mid-batch. At 8192 loads a hand-off covers a batch of up to
// eight loads a row, and the pipeline then runs a whole batch ahead of the
// replay: a mid-batch submit waits for the other buffer, and when a cap of
// 3072 streams cut IDX batches in two, IDX projections over lineitem ran
// about a third slower on a 2-vCPU Xeon. A buffer holds replayBufRuns
// runs, since each batch ends with a submit and each of its rows opens at
// most one run, and it grows its streams on demand up to replayBufLoads,
// since every stream of a run loads at least once: rows that share a
// program need few, and only scattered row ids (IDX in index order), which
// give every row its own run, need one per load.
const (
	replayBufLoads = 8192
	replayBufRuns  = vecBatchRows
)

// replaySpin bounds how often a side of the hand-off polls its channel,
// yielding the processor between polls, before it blocks. A yield costs
// about 150 ns, so the spin covers a wait of about one batch's replay;
// past it the side parks, and waking a parked goroutine costs
// microseconds, on virtual machines tens of them. With runs a batch
// replays faster, so the replay goroutine idles longer between batches,
// but parking it sooner does not pay: with 100 polls on its side a scan
// round of the scan workload's statements ran 4.5% slower on a 2-vCPU
// Xeon, the late wake-ups landing on the critical path of replay-bound
// scans. With one P each yield runs the other side, so the spin cannot
// deadlock.
const replaySpin = 1000

// replayer is a replay goroutine's hand-off: its two channels and the two
// buffers that circulate through them, plus the storage of the scan's load
// programs. Each System keeps one between its scans, which run one at a
// time, so a scan's steady state allocates no buffers or channels.
type replayer struct {
	bufs [2]runBuf
	work chan *runBuf // submitted buffers; nil stops the goroutine
	done chan *runBuf // replayed buffers handed back; nil acknowledges the stop

	progs   [][]cache.Stream
	streams []cache.Stream

	runArr     [2][replayBufRuns]cache.Run
	progArr    [16][]cache.Stream
	progStream [64]cache.Stream
}

func newReplayer() *replayer {
	r := &replayer{
		work: make(chan *runBuf, 1),
		done: make(chan *runBuf, 1),
	}
	for i := range r.bufs {
		r.bufs[i] = runBuf{runs: r.runArr[i][:0], streams: make([]cache.Stream, 0, replayBufRuns)}
	}
	r.progs, r.streams = r.progArr[:0], r.progStream[:0]
	return r
}

// run is the replay goroutine: it charges each submitted buffer to hier
// and hands it back, until it receives nil.
func (r *replayer) run(hier *cache.Hierarchy) {
	for {
		rb := recvSpin(r.work)
		if rb == nil {
			r.done <- nil
			return
		}
		hier.LoadRuns(rb.runs, rb.streams)
		r.done <- rb
	}
}

// recvSpin receives from c, polling and yielding up to replaySpin times
// before it blocks.
func recvSpin(c chan *runBuf) *runBuf {
	for range replaySpin {
		select {
		case b := <-c:
			return b
		default:
			runtime.Gosched()
		}
	}
	return <-c
}

// step records one step of prog at index i: a load of prog[j].Base +
// i*prog[j].Stride for each stream j, in order.
func (b *loadBuf) step(prog []cache.Stream, i int64) { b.steps(prog, i, 1) }

// steps records n steps of prog from index i on. Steps of the program the
// last run was opened with, continuing its indices, extend that run.
func (b *loadBuf) steps(prog []cache.Stream, i, n int64) {
	k := len(prog)
	if k == 0 {
		return
	}
	if !b.running {
		b.start()
	}
	for n > 0 {
		rb := b.buf
		c := min(n, int64((replayBufLoads-rb.loads)/k))
		if i != b.next || b.open != &prog[0] || c == 0 {
			if rb.loads > 0 && (c == 0 || len(rb.runs) == cap(rb.runs)) {
				b.submit()
				continue
			}
			c = max(c, 1)
			rb.runs = append(rb.runs, cache.Run{Streams: int32(k)})
			for _, st := range prog {
				rb.streams = append(rb.streams, cache.Stream{Base: st.Base + i*st.Stride, Stride: st.Stride})
			}
			b.open = &prog[0]
		}
		rb.runs[len(rb.runs)-1].Count += int32(c)
		rb.loads += int(c) * k
		i += c
		n -= c
		b.next = i
	}
}

// lease takes the System's hand-off for the scan, or a new one, if the
// scan has none yet.
func (b *loadBuf) lease() *replayer {
	if b.r == nil {
		b.r, b.sys.replay = b.sys.replay, nil
		if b.r == nil {
			b.r = newReplayer()
		}
		b.buf, b.spare = &b.r.bufs[0], &b.r.bufs[1]
	}
	return b.r
}

// start starts the replay goroutine; a scan's first load does, so a scan
// that loads nothing starts none.
func (b *loadBuf) start() {
	b.lease()
	b.running = true
	go b.r.run(b.hier)
}

// submit hands the pending loads to the replay goroutine and takes the
// other buffer to fill, waiting for it if it is still at the goroutine.
func (b *loadBuf) submit() {
	if !b.running || b.buf.loads == 0 {
		return
	}
	if b.busy {
		b.spare = recvSpin(b.r.done)
	}
	b.r.work <- b.buf
	b.buf, b.spare, b.busy = b.spare, nil, true
	b.buf.reset()
	b.open = nil
}

// flush takes the hierarchy back and charges the pending loads: it waits
// for the buffer at the goroutine, then replays the rest inline.
func (b *loadBuf) flush() {
	b.open = nil
	if !b.running {
		return
	}
	if b.busy {
		b.spare, b.busy = recvSpin(b.r.done), false
	}
	b.hier.LoadRuns(b.buf.runs, b.buf.streams)
	b.buf.reset()
}

// stop ends the replay goroutine once it has charged what it holds, and
// returns the hand-off to the System. It does not charge the pending loads
// (flush does), and it is idempotent, so scans defer it for their error
// paths and call it when they finish.
func (b *loadBuf) stop() {
	if b.r == nil {
		return
	}
	if b.running {
		if b.busy {
			recvSpin(b.r.done)
		}
		b.r.work <- nil
		recvSpin(b.r.done)
	}
	for i := range b.r.bufs {
		b.r.bufs[i].reset()
	}
	b.sys.replay = b.r
	*b = loadBuf{sys: b.sys, hier: b.hier}
}

// programs returns the hand-off's program storage, emptied, with room for
// n streams so the programs carved from it never move. Rewriting programs
// ends the open run, whose first stream the new ones may reuse.
func (b *loadBuf) programs(n int) ([][]cache.Stream, []cache.Stream) {
	r := b.lease()
	if cap(r.streams) < n {
		r.streams = make([]cache.Stream, 0, n)
	}
	b.open = nil
	return r.progs[:0], r.streams[:0]
}

// rowPrograms lays out the load program of each outcome of prog over seg
// as streams indexed by row: with hdr, the row's MVCC header, then the
// outcome's columns where seg's layout puts them. hidden is the header-only
// program of a row a snapshot does not see. The programs live until the
// next call.
func (b *loadBuf) rowPrograms(prog *scanProg, seg *segment, hdr *table.Table) (progs [][]cache.Stream, hidden []cache.Stream) {
	var header cache.Stream
	if hdr != nil {
		header = cache.Stream{Base: hdr.BaseAddr(), Stride: int64(hdr.RowStride())}
	}
	need := 1
	for _, slots := range prog.loadSlots {
		need += 1 + len(slots)
	}
	progs, buf := b.programs(need)
	for _, slots := range prog.loadSlots {
		start := len(buf)
		if hdr != nil {
			buf = append(buf, header)
		}
		for _, si := range slots {
			buf = append(buf, seg.cols[prog.slots[si].col].stream())
		}
		progs = append(progs, buf[start:len(buf):len(buf)])
	}
	b.r.progs = progs
	buf = append(buf, header)
	return progs, buf[len(buf)-1:]
}

// colPrograms lays out the load programs of COL's selection passes as
// streams indexed by row: each pass's value column, with the bitmap after
// it on refine passes.
func (b *loadBuf) colPrograms(sel expr.Conjunction, sch *geometry.Schema, store *colstore.Store, bitmapAddr int64) [][]cache.Stream {
	passes, buf := b.programs(2 * len(sel))
	for pi, p := range sel {
		start := len(buf)
		buf = append(buf, cache.Stream{Base: store.ColumnAddr(p.Col), Stride: int64(sch.Column(p.Col).Width)})
		if pi > 0 {
			buf = append(buf, cache.Stream{Base: bitmapAddr, Stride: 1})
		}
		passes = append(passes, buf[start:len(buf):len(buf)])
	}
	b.r.progs = passes
	return passes
}

// runVec drives the compiled batch program over the source's segments:
// dense rows (ROW's heap, RM chunks, COL's columns without a selection) are
// decoded in place, explicit row-id lists (IDX candidates, COL's qualifying
// rows) are gathered batch by batch, each column from where the segment
// says it lives.
func (s *scan) runVec(q *Query) (*Result, error) {
	pr := s.begin()
	prog := s.prog
	sc := s.scratch
	sc.ensure(prog)
	pr.loads = loadBuf{sys: s.sys, hier: s.sys.Hier}
	loads := &pr.loads
	defer loads.stop()
	if s.prepare != nil {
		ids, err := s.prepare(pr)
		if err != nil {
			return nil, err
		}
		pr.ids = ids
	}

	hdr := s.mvccTbl
	snapped := hdr != nil && q.Snapshot != nil
	var snapTS uint64
	if snapped {
		snapTS = *q.Snapshot
	}

	acc := sc.begin(prog)
	var scanned int64
	var pipeline, producer uint64
	last := len(prog.preds)

	next := s.segs(pr)
	for {
		// The segment's consumer time starts here, and RM's next runs the
		// fabric over the shared DRAM module: both need the hierarchy back.
		loads.flush()
		hierBefore := s.sys.Hier.Stats().Cycles
		computeBefore := pr.compute

		seg, ok := next()
		if !ok {
			break
		}
		progs, hidden := loads.rowPrograms(prog, &seg, hdr)
		scanned += seg.sourceRows
		total := seg.rows
		if seg.ids != nil {
			total = len(seg.ids)
		}

		for sub := 0; sub < total; sub += vecBatchRows {
			n := min(total-sub, vecBatchRows)
			vis := sc.vis[:n]
			var rows []int32
			if seg.ids != nil {
				rows = seg.ids[sub : sub+n]
				if snapped {
					vec.VisibleRows(vis, hdr.Data(), hdr.RowStride(), rows, snapTS)
				}
				sc.gatherSlots(prog, seg.cols, rows)
			} else {
				if snapped {
					vec.VisibleMask(vis, hdr.Data(), hdr.RowStride(), sub, snapTS)
				}
				sc.decodeSlots(prog, seg.cols, sub, n)
			}
			sel := sc.sel[:0]
			for i := 0; i < n; i++ {
				if !snapped || vis[i] {
					sel = append(sel, int32(i))
				}
			}
			sel = sc.refine(prog, n, sel)
			extra := sc.sinkBatch(s.sink, prog, sel, n)

			// Charge replay, row-major: tick, iterator overhead, then the
			// outcome's load program (MVCC header touch first) and the
			// sink's per-row charge. A per-row tick samples the hierarchy,
			// so it flushes the loads of the rows before it.
			// Otherwise the charges are summed and the loads recorded a
			// stretch of rows at a time, rows that run one program at
			// successive indices; the batch's loads go to the replay
			// goroutine, which charges them while the pipeline consumes
			// this batch and decodes the next.
			fail := sc.fail[:n]
			rowAt := func(i int) int64 {
				if rows != nil {
					return int64(rows[i])
				}
				return int64(sub + i)
			}
			program := func(o int) []cache.Stream {
				if o < 0 {
					return hidden
				}
				return progs[o]
			}
			tickRows := s.tickPerRow && pr.tk.tl != nil
			for i := 0; i < n; i++ {
				if tickRows {
					loads.flush()
					pr.tk.advance(s.sys.Hier.Stats().Cycles - pr.hierStart.Cycles + pr.compute)
				}
				pr.compute += s.spec.ch.perRow
				if snapped {
					pr.compute += TSCheckSoftwareCycles
				}
				o := rowOutcome(fail, vis, snapped, last, i)
				if o >= 0 {
					pr.compute += prog.charge[o]
					if extra != nil {
						pr.compute += extra[i]
					}
				}
				if tickRows {
					loads.step(program(o), rowAt(i))
				}
			}
			for i := 0; i < n && !tickRows; {
				o, r := rowOutcome(fail, vis, snapped, last, i), rowAt(i)
				j := i + 1
				for j < n && rowOutcome(fail, vis, snapped, last, j) == o && rowAt(j) == r+int64(j-i) {
					j++
				}
				loads.steps(program(o), r, int64(j-i))
				i = j
			}
			loads.submit()

			sc.consume(prog, sel, acc)
		}

		if s.pipelined {
			loads.flush()
			consumer := (s.sys.Hier.Stats().Cycles - hierBefore) + (pr.compute - computeBefore)
			producer += seg.producer
			if seg.producer > consumer {
				pipeline += seg.producer
			} else {
				pipeline += consumer
			}
			pr.tk.advance(pipeline)
		}
	}

	loads.stop() // the loop's last flush charged every load
	res := sc.result(s.name, q, acc, scanned, s.part)
	return s.finishRun(pr, res, pipeline, producer)
}

// colBitmapPasses is COL's prepare hook, the decomposed layout's
// selection: one full-column pass per predicate, MonetDB-style. Each pass
// streams the entire column (dense, prefetch-friendly) and materializes a
// full-length match bitmap, itself a memory-resident intermediate, which
// the next pass ANDs into: the first pass only writes it (a streaming
// store), later passes read-modify-write it and pay its load. Per row, a
// pass ticks the timeline, loads the value (then the bitmap), and charges
// VectorOpCycles + MaterializeCycles. Each batch of a pass is recorded as
// one run (row by row under a timeline, whose per-row ticks flush) and
// compared by bitmap kernels. It returns the qualifying row ids, or nil
// when there is no selection (every row qualifies), so reconstruction
// decodes dense batches.
func colBitmapPasses(pr *pipeRun, sys *System, sc *scanScratch, store *colstore.Store, sch *geometry.Schema, selection expr.Conjunction) []int32 {
	if len(selection) == 0 {
		return nil
	}
	rows := store.NumRows()
	bitmapAddr := sys.Arena.Alloc(int64(rows))
	bitmap := make([]bool, rows)
	loads := &pr.loads
	passes := loads.colPrograms(selection, sch, store, bitmapAddr)
	for pi, p := range selection {
		cdef := sch.Column(p.Col)
		w := cdef.Width
		data := store.ColumnData(p.Col)
		refinePass := pi > 0
		var opB []byte
		if cdef.Type == geometry.Char {
			opB = vec.TrimPad(p.Operand.Bytes)
		}
		for base := 0; base < rows; base += vecBatchRows {
			n := min(rows-base, vecBatchRows)
			// Pass order per row: tick, value load, bitmap load (later
			// passes), charge.
			if pr.tk.tl != nil {
				for i := 0; i < n; i++ {
					loads.flush()
					pr.tk.advance(sys.Hier.Stats().Cycles - pr.hierStart.Cycles + pr.compute)
					loads.step(passes[pi], int64(base+i))
					pr.compute += VectorOpCycles + MaterializeCycles
				}
			} else {
				loads.steps(passes[pi], int64(base), int64(n))
				pr.compute += uint64(n) * (VectorOpCycles + MaterializeCycles)
			}
			loads.submit()
			dst := bitmap[base : base+n]
			switch cdef.Type {
			case geometry.Int64:
				vec.DecodeI64(sc.pred[:n], data, base*w, w, n)
				vec.CmpBitmapI64(dst, sc.pred[:n], p.Op, p.Operand.Int, refinePass)
			case geometry.Int32, geometry.Date:
				vec.DecodeI32(sc.pred[:n], data, base*w, w, n)
				vec.CmpBitmapI64(dst, sc.pred[:n], p.Op, p.Operand.Int, refinePass)
			case geometry.Float64:
				vec.DecodeF64(sc.out[:n], data, base*w, w, n)
				vec.CmpBitmapF64(dst, sc.out[:n], p.Op, p.Operand.Float, refinePass)
			case geometry.Char:
				vec.CmpBitmapChar(dst, data, w, base, p.Op, opB, refinePass)
			}
		}
	}
	return bitmapIDs(pr, bitmap)
}

// rowOutcome is the load program of batch row i: the index of its
// short-circuit outcome, last when it passes, or -1 when the snapshot
// hides it.
func rowOutcome(fail []int16, vis []bool, snapped bool, last, i int) int {
	switch {
	case snapped && !vis[i]:
		return -1
	case fail[i] >= 0:
		return int(fail[i])
	}
	return last
}

// vecRowLimit guards the int32 row ids of segment id lists and selections:
// a ROW, COL or IDX table past it fails at open (none of the
// reproduction's workloads come close).
const vecRowLimit = math.MaxInt32
