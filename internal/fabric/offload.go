package fabric

import (
	"errors"
	"fmt"

	"rfabric/internal/compress"
	"rfabric/internal/expr"
	"rfabric/internal/geometry"
	"rfabric/internal/table"
	"rfabric/internal/vec"
)

// Offload is a first-class operator program a Source can push into the
// fabric: selection (carried by the view's options), projection (the view's
// geometry), then grouped or ungrouped aggregation over the packed rows —
// the Farview-style generalization of the paper's §IV-B pushdown. Only the
// reduced result ships toward the CPU.
type Offload struct {
	// GroupBy lists schema columns to group on; empty means one global fold.
	GroupBy []int
	// Aggs is one folded value per output, in order.
	Aggs []expr.AggSpec
}

// Grouped reports whether the program produces per-group rows.
func (o *Offload) Grouped() bool { return o != nil && len(o.GroupBy) > 0 }

// Describe names the program for plan/span annotations.
func (o *Offload) Describe() string {
	if o.Grouped() {
		return "group-agg"
	}
	return "agg"
}

// DictFilter is a code-domain predicate over a dictionary-encoded column:
// rows whose stored code is outside Codes are dropped without decoding.
// Entries is how many dictionary entries were decoded to translate the
// value-domain predicate (charged fabric-side at DecodeCycles each).
type DictFilter struct {
	Col     int
	Codes   *compress.CodeSet
	Entries int
}

// OffloadResult is the outcome of running an Offload program on a view.
type OffloadResult struct {
	// Values holds the ungrouped results (one per spec); nil when grouped.
	Values []table.Value
	// Groups is the grouped fold's table: each group's key (its GroupBy
	// values, vec.GroupTable.KeyValue), row count and one vec.AggState per
	// AggSpec, in first-seen order; nil when ungrouped. The receiver
	// finalizes the states (vec.AggState.Result).
	Groups *vec.GroupTable
	// RowsScanned and RowsQualified describe the scan behind the result.
	RowsScanned   int
	RowsQualified int
	// ProducerCycles is the full CPU-cycle cost of the fabric-side program;
	// only the reduced result crosses to the CPU.
	ProducerCycles uint64
	// ResultBytes is the size of the shipped result — the entire
	// bytes-to-CPU bill of the offloaded scan.
	ResultBytes int
}

// RunOffload executes the program over the view's selection and snapshot.
// The base data never crosses toward the CPU: the fabric scans, filters and
// packs each chunk as Next does, then folds the packed rows block by block
// with the same vec kernels as the CPU batch consumer — vec.GroupTable when
// grouped, one vec.AggState per aggregate when not — and ships only the
// reduced result: the finalized values (vec.AggState.Result) of an
// ungrouped program, or a grouped program's table. An ungrouped program is
// one group that exists even when no row qualifies.
//
// Charges: each chunk's ProducerCycles; a grouped program's key hashing and
// routing at AggregateCycles per qualifying row on the fabric clock; and
// AggregateCycles per (group, aggregate) for the final fold. ResultBytes is
// the group keys' wire size (wireKeyBytes) plus 8 bytes per (group,
// aggregate).
func (ev *Ephemeral) RunOffload(off *Offload) (*OffloadResult, error) {
	if off == nil || len(off.Aggs) == 0 {
		return nil, errors.New("fabric: offload program has no aggregates")
	}
	f, err := ev.compileFold(off)
	if err != nil {
		return nil, err
	}

	e := ev.eng
	grouped := off.Grouped()
	var producer uint64
	scanned, qualified := 0, 0
	ev.Reset()
	for {
		ch, ok := ev.Next()
		if !ok {
			break
		}
		// Undo the shipping accounting Next performed: nothing leaves the
		// fabric for an offloaded aggregation.
		e.stats.BytesShipped -= uint64(len(ch.Data))
		e.stats.LinesShipped -= uint64((len(ch.Data) + e.mem.LineBytes() - 1) / e.mem.LineBytes())
		scanned += ch.SourceRows
		qualified += ch.Rows
		producer += ch.ProducerCycles

		for b := 0; b < ch.Rows; b += vec.BatchRows {
			f.block(ch.Data, b*ev.packed, ev.packed, min(vec.BatchRows, ch.Rows-b))
		}
		if grouped {
			// The grouping datapath hashes each qualifying row's key and
			// routes it to its fold lane — unlike the global fold, this
			// serializes at AggregateCycles per row on the fabric clock.
			groupCPU := e.computeCPUCycles(uint64(ch.Rows) * uint64(e.cfg.AggregateCycles))
			e.stats.ComputeCycles += groupCPU
			producer += groupCPU
		}
	}

	groups, keyBytes := 1, 0
	if grouped {
		groups, keyBytes = f.groups.Len(), f.wireKeyBytes()
	}
	// Result assembly: one fold per (group, aggregate) shipped at the end.
	results := groups * len(off.Aggs)
	finalFold := e.cfg.FoldCycles(uint64(results))
	e.stats.ComputeCycles += finalFold
	e.stats.Aggregates += uint64(results)

	out := &OffloadResult{
		RowsScanned:    scanned,
		RowsQualified:  qualified,
		ProducerCycles: producer + finalFold,
		ResultBytes:    keyBytes + results*8,
	}
	if !grouped {
		out.Values = make([]table.Value, len(off.Aggs))
		for t, sp := range off.Aggs {
			out.Values[t] = f.states[t].Result(sp.Kind)
		}
		return out, nil
	}
	out.Groups = &f.groups
	return out, nil
}

// wireKeyBytes is the modeled wire size of the grouped result's keys: per
// group, 8 bytes per integer or DOUBLE key column, and a CHAR key's
// pad-trimmed bytes plus one terminator byte.
func (f *offloadFold) wireKeyBytes() (n int) {
	for g := 0; g < f.groups.Len(); g++ {
		for k := range f.keys {
			if f.keys[k].Type == geometry.Char {
				n += len(vec.TrimPad(f.groups.KeyValue(g, k).Bytes)) + 1
			} else {
				n += 8
			}
		}
	}
	return n
}

// offloadFold is an Offload program compiled against the view's packed rows,
// with its running state: one Col per group-by and aggregate-argument
// column, decoded from the packed row at keyOff/aggOff.
type offloadFold struct {
	specs  []expr.AggSpec
	keys   []vec.Col
	keyOff []int
	aggs   []vec.Col // aligned with specs; COUNT terms read no column
	aggOff []int
	groups vec.GroupTable // grouped programs
	states []vec.AggState // ungrouped programs, one per aggregate
	sel    []int32        // the identity selection 0..BatchRows-1
	ids    []int32
}

// compileFold validates the program against the view and locates its
// columns in the packed row. Every column is range-checked before an error
// message names it.
func (ev *Ephemeral) compileFold(off *Offload) (*offloadFold, error) {
	sch := ev.tbl.Schema()
	packed := func(c int, what string) (vec.Col, int, error) {
		if c < 0 || c >= sch.NumColumns() {
			return vec.Col{}, 0, fmt.Errorf("fabric: %s column %d out of range [0,%d)", what, c, sch.NumColumns())
		}
		col := sch.Column(c)
		if !ev.geom.Contains(c) {
			return vec.Col{}, 0, fmt.Errorf("fabric: %s column %q not in configured geometry %s", what, col.Name, ev.geom)
		}
		return vec.MakeCol(col, vec.BatchRows), ev.geom.PackedOffset(ev.geom.Position(c)), nil
	}
	f := &offloadFold{
		specs:  off.Aggs,
		aggs:   make([]vec.Col, len(off.Aggs)),
		aggOff: make([]int, len(off.Aggs)),
		states: make([]vec.AggState, len(off.Aggs)),
		sel:    make([]int32, vec.BatchRows),
		ids:    make([]int32, vec.BatchRows),
	}
	for i := range f.sel {
		f.sel[i] = int32(i)
	}
	var keyCols []geometry.Column
	for _, c := range off.GroupBy {
		k, o, err := packed(c, "group-by")
		if err != nil {
			return nil, err
		}
		f.keys, f.keyOff = append(f.keys, k), append(f.keyOff, o)
		keyCols = append(keyCols, sch.Column(c))
	}
	f.groups.Reset(len(off.Aggs), keyCols)
	for t, sp := range off.Aggs {
		if err := sp.Validate(sch); err != nil {
			return nil, err
		}
		if sp.Kind == expr.Count {
			continue
		}
		a, o, err := packed(sp.Col, "aggregate")
		if err != nil {
			return nil, err
		}
		f.aggs[t], f.aggOff[t] = a, o
	}
	return f, nil
}

// block folds the n packed rows from byte base of data, one per stride.
func (f *offloadFold) block(data []byte, base, stride, n int) {
	sel, ids := f.sel[:n], f.ids[:n]
	if f.keys != nil {
		for i := range f.keys {
			f.keys[i].Decode(data, base+f.keyOff[i], stride, n)
		}
		f.groups.Assign(ids, f.keys, sel)
	}
	for t, sp := range f.specs {
		switch a := &f.aggs[t]; {
		case sp.Kind == expr.Count && f.keys != nil:
			f.groups.FoldCount(t, ids)
		case sp.Kind == expr.Count:
			f.states[t].AddCount(int64(n))
		default:
			a.Decode(data, base+f.aggOff[t], stride, n)
			if f.keys != nil {
				a.Fold(&f.groups, t, ids, sel)
			} else {
				a.AddTo(&f.states[t], sel)
			}
		}
	}
}
