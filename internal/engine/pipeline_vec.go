package engine

import (
	"math"
	"runtime"
	"sync"

	"rfabric/internal/cache"
	"rfabric/internal/colstore"
	"rfabric/internal/geometry"
	"rfabric/internal/vec"
)

// The batch executor: the vectorized twin of runScalar in pipeline.go.
// It processes vecBatchRows rows per iteration in four stages — visibility,
// bulk decode, selection refinement, charge replay — then consumes the
// survivors through typed kernels. The charge-replay stage issues the exact
// load sequence and compute charges of the scalar interpreter (the per-row
// short-circuit outcome decided by the recorded fail depth selects a
// precompiled load program), so modeled cycles, Breakdown, spans, and
// timelines are byte-identical; only wall-clock time and allocations
// change. The loads are charged to the hierarchy by the scan's replay
// goroutine (see loadBuf), so batch k's cache simulation runs on another
// core while the pipeline decodes, refines, sinks, and consumes batch k+1.
// Like the scalar pipeline it is written once and parameterized by the
// opened scan: ROW feeds it one strided segment (with MVCC replay and
// per-row ticks), RM feeds it fabric chunks with pipeline accounting, IDX
// feeds it its candidate row ids over the strided heap. COL's decomposed
// layout has its own batch scan, runColVec, below.

// loadBuf collects the charge replay's load addresses, in scalar order, and
// hands them to the scan's replay goroutine, which charges each submitted
// buffer to the hierarchy with LoadAddrs, in FIFO order.
//
// The hierarchy has one owner at a time. submit passes it to the goroutine
// along with a buffer; flush takes it back, waiting for the goroutine, and
// replays the pending remainder inline. Whatever reads hierarchy or DRAM
// state, or lets another component touch them (Hier.Stats, a timeline
// tick, the fabric's next chunk, the scan's result), flushes first, and
// nothing between a submit and the next flush touches the scan's System.
// The hierarchy thus sees the same addresses in the same order as an
// inline replay, one goroutine at a time, with every hand-off ordered by a
// channel operation; LoadAddrs' return value is never read (costs come
// from Hier.Stats after a flush), so no modeled figure can change. On the
// demand paths a timeline's per-row ticks flush at every row, so their
// traced scans keep replaying inline.
type loadBuf struct {
	hier  *cache.Hierarchy
	r     *replayer // the running goroutine's hand-off; nil before the first add
	buf   []int64   // the buffer being filled
	n     int       // loads pending in buf
	spare []int64   // the other buffer, unless busy
	busy  bool      // the other buffer is at the goroutine
}

// replayBufLoads is each replay buffer's capacity; a batch that issues more
// loads submits mid-batch.
const replayBufLoads = 8192

// replaySpin bounds how often a side of the hand-off polls its channel,
// yielding the processor between polls, before it blocks. A yield costs
// about 150 ns, so the spin covers a wait of about one batch's replay;
// past it the side parks, and waking a parked goroutine costs
// microseconds, on virtual machines tens of them. With one P each yield
// runs the other side, so the spin cannot deadlock.
const replaySpin = 1000

// replayer is a replay goroutine's hand-off: its two channels and the two
// buffers that circulate through them. Pooling it keeps a scan's steady
// state free of buffer and channel allocations.
type replayer struct {
	bufs [2][]int64
	work chan []int64 // submitted buffers; nil stops the goroutine
	done chan []int64 // replayed buffers handed back; nil acknowledges the stop
}

var replayers = sync.Pool{New: func() any {
	return &replayer{
		bufs: [2][]int64{make([]int64, replayBufLoads), make([]int64, replayBufLoads)},
		work: make(chan []int64, 1),
		done: make(chan []int64, 1),
	}
}}

// run is the replay goroutine: it charges each submitted buffer to hier
// and hands it back, until it receives nil.
func (r *replayer) run(hier *cache.Hierarchy) {
	for {
		buf := recvSpin(r.work)
		if buf == nil {
			r.done <- nil
			return
		}
		hier.LoadAddrs(buf)
		r.done <- buf
	}
}

// recvSpin receives from c, polling and yielding up to replaySpin times
// before it blocks.
func recvSpin(c chan []int64) []int64 {
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

func (b *loadBuf) add(addr int64) {
	if b.n == len(b.buf) {
		if b.r == nil {
			b.start()
		} else {
			b.submit()
		}
	}
	b.buf[b.n] = addr
	b.n++
}

// start takes a pooled hand-off and starts the replay goroutine; a scan's
// first load does, so a scan that loads nothing starts none.
func (b *loadBuf) start() {
	b.r = replayers.Get().(*replayer)
	b.buf, b.spare = b.r.bufs[0], b.r.bufs[1]
	go b.r.run(b.hier)
}

// submit hands the pending loads to the replay goroutine and takes the
// other buffer to fill, waiting for it if it is still at the goroutine.
func (b *loadBuf) submit() {
	if b.n == 0 {
		return
	}
	if b.busy {
		b.spare = recvSpin(b.r.done)
	}
	b.r.work <- b.buf[:b.n]
	b.buf, b.spare, b.busy = b.spare[:replayBufLoads], nil, true
	b.n = 0
}

// flush takes the hierarchy back and charges the pending loads: it waits
// for the buffer at the goroutine, then replays the rest inline.
func (b *loadBuf) flush() {
	if b.busy {
		b.spare, b.busy = recvSpin(b.r.done), false
	}
	b.hier.LoadAddrs(b.buf[:b.n])
	b.n = 0
}

// stop ends the replay goroutine once it has charged what it holds, and
// returns the buffers to the pool. It does not charge the pending loads
// (flush does), and it is idempotent, so scans defer it for their error
// paths and call it when they finish.
func (b *loadBuf) stop() {
	if b.r == nil {
		return
	}
	if b.busy {
		recvSpin(b.r.done)
	}
	b.r.work <- nil
	recvSpin(b.r.done)
	replayers.Put(b.r)
	*b = loadBuf{hier: b.hier}
}

// runVec drives the compiled batch program over the source's segments:
// dense strided rows (ROW, RM chunks) are decoded in place, explicit row-id
// lists (IDX candidates) are gathered batch by batch from the strided heap.
func (s *scan) runVec(q Query) (*Result, error) {
	pr := s.begin()
	prog := s.prog
	sc := s.scratch
	sc.ensure(prog)
	if s.prepare != nil {
		ids, err := s.prepare(pr)
		if err != nil {
			return nil, err
		}
		pr.ids = ids
	}

	snapped := s.mvccTbl != nil && q.Snapshot != nil
	var snapTS uint64
	if snapped {
		snapTS = *q.Snapshot
	}

	acc := sc.begin(prog)
	var scanned int64
	var pipeline, producer uint64
	last := len(prog.preds)
	loads := loadBuf{hier: s.sys.Hier}
	defer loads.stop()

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
				rows = sc.rows[:n]
				for i := range rows {
					rows[i] = int32(seg.ids[sub+i])
				}
				if snapped {
					vec.VisibleRows(vis, seg.data, seg.stride, rows, snapTS)
				}
				sc.gatherSlots(prog, seg.data, seg.payloadOff, seg.stride, rows)
			} else {
				if snapped {
					vec.VisibleMask(vis, seg.data, seg.stride, sub, snapTS)
				}
				sc.decodeSlots(prog, seg.data, sub*seg.stride+seg.payloadOff, seg.stride, n)
			}
			sel := sc.sel[:0]
			for i := 0; i < n; i++ {
				if !snapped || vis[i] {
					sel = append(sel, int32(i))
				}
			}
			sel = sc.refine(prog, n, sel)
			extra := sc.sinkBatch(s.sink, prog, sel, n)

			// Charge replay, row-major like the scalar loop: tick, iterator
			// overhead, MVCC header touch, then the outcome's load program
			// and the sink's per-row charge. A per-row tick samples the
			// hierarchy, so it flushes the loads of the rows before it; the
			// batch's loads go to the replay goroutine, which charges them
			// while the pipeline consumes this batch and decodes the next.
			fail := sc.fail[:n]
			tickRows := s.tickPerRow && pr.tk.tl != nil
			for i := 0; i < n; i++ {
				row := sub + i
				if rows != nil {
					row = int(rows[i])
				}
				rowAddr := seg.baseAddr + int64(row)*int64(seg.stride)
				if tickRows {
					loads.flush()
					pr.tk.advance(s.sys.Hier.Stats().Cycles - pr.hierStart.Cycles + pr.compute)
				}
				pr.compute += s.perRow
				if s.mvccTbl != nil {
					loads.add(rowAddr)
					if snapped {
						pr.compute += TSCheckSoftwareCycles
						if !vis[i] {
							continue
						}
					}
				}
				idx := last
				if fail[i] >= 0 {
					idx = int(fail[i])
				}
				payloadAddr := rowAddr + int64(seg.payloadOff)
				for _, off := range prog.loadOffs[idx] {
					loads.add(payloadAddr + off)
				}
				pr.compute += prog.charge[idx]
				if extra != nil {
					pr.compute += extra[i]
				}
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
	res := sc.result(s.name, q, prog, acc, scanned)
	return s.finishRun(pr, res, pipeline, producer)
}

// colVecLayout is the decomposed-layout batch driver's view of the column
// store: dense per-column arrays addressed by (column, row) rather than a
// strided row region, so selection runs as bitmap passes and reconstruction
// as gathers.
type colVecLayout struct {
	store *colstore.Store
}

// runColVec is the decomposed layout's batch scan: bitmap selection passes
// over dense columns, then batched tuple reconstruction over the qualifying
// row ids.
func (s *scan) runColVec(q Query) (*Result, error) {
	pr := s.begin()
	prog := s.prog
	sc := s.scratch
	sc.ensure(prog)
	store := s.colVec.store
	sch := s.sch
	rows := store.NumRows()
	loads := loadBuf{hier: s.sys.Hier}
	defer loads.stop()

	var bitmap []bool
	var bitmapAddr int64
	if len(q.Selection) > 0 {
		bitmapAddr = s.sys.Arena.Alloc(int64(rows))
		bitmap = make([]bool, rows)
	}
	for pi, p := range q.Selection {
		cdef := sch.Column(p.Col)
		w := cdef.Width
		data := store.ColumnData(p.Col)
		valBase := store.ColumnAddr(p.Col)
		refinePass := pi > 0
		var opB []byte
		if cdef.Type == geometry.Char {
			opB = vec.TrimPad(p.Operand.Bytes)
		}
		for base := 0; base < rows; base += vecBatchRows {
			n := rows - base
			if n > vecBatchRows {
				n = vecBatchRows
			}
			// Exact scalar pass order per row: tick, value load, bitmap
			// load (later passes), charge.
			addr := valBase + int64(base*w)
			for i := 0; i < n; i++ {
				if pr.tk.tl != nil {
					loads.flush()
					pr.tk.advance(s.sys.Hier.Stats().Cycles - pr.hierStart.Cycles + pr.compute)
				}
				loads.add(addr)
				if refinePass {
					loads.add(bitmapAddr + int64(base+i))
				}
				pr.compute += VectorOpCycles + MaterializeCycles
				addr += int64(w)
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

	var sel32 []int32
	if bitmap != nil {
		sel32 = make([]int32, 0, rows)
		for r, ok := range bitmap {
			if ok {
				sel32 = append(sel32, int32(r))
			}
		}
		pr.compute += uint64(len(sel32) * MaterializeCycles)
	}

	// Reconstruction: gather the group's consumed columns, hand them to a
	// join sink if any, then replay the pass program (index
	// len(prog.preds)==0 here — compile saw no CPU predicates) and the
	// sink's per-row charge. The visit list touches every consumed column
	// before a sink sees the row, so all of a sink's pass outcomes share
	// this program.
	slotLoads := prog.loadSlots[len(prog.preds)]
	passCharge := prog.charge[len(prog.preds)]
	acc := sc.begin(prog)

	process := func(group []int32) {
		for i := range prog.slots {
			sl := &prog.slots[i]
			sc.gatherSlot(sl, store.ColumnData(sl.col), sl.width, group)
		}
		sel := sc.iota[:len(group)]
		extra := sc.sinkBatch(s.sink, prog, sel, len(group))
		for j, r := range group {
			if pr.tk.tl != nil {
				loads.flush()
				pr.tk.advance(s.sys.Hier.Stats().Cycles - pr.hierStart.Cycles + pr.compute)
			}
			for _, si := range slotLoads {
				sl := &prog.slots[si]
				loads.add(store.ValueAddr(sl.col, int(r)))
			}
			pr.compute += passCharge
			if extra != nil {
				pr.compute += extra[j]
			}
		}
		loads.submit()
		sc.consume(prog, sel, acc)
	}

	if bitmap == nil {
		for base := 0; base < rows; base += vecBatchRows {
			n := rows - base
			if n > vecBatchRows {
				n = vecBatchRows
			}
			group := sc.sel[:0]
			for i := 0; i < n; i++ {
				group = append(group, int32(base+i))
			}
			process(group)
		}
	} else {
		for s0 := 0; s0 < len(sel32); s0 += vecBatchRows {
			s1 := s0 + vecBatchRows
			if s1 > len(sel32) {
				s1 = len(sel32)
			}
			process(sel32[s0:s1])
		}
	}

	loads.flush()
	loads.stop()
	res := sc.result(s.name, q, prog, acc, int64(rows))
	return s.finishRun(pr, res, 0, 0)
}

// vecRowLimit guards the int32 selection representation; tables past it use
// the scalar paths (none of the reproduction's workloads come close).
const vecRowLimit = math.MaxInt32
