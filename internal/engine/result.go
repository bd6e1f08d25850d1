package engine

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"rfabric/internal/table"
	"rfabric/internal/vec"
)

// Breakdown is the modeled cost of one query execution.
type Breakdown struct {
	// ComputeCycles is the CPU work charged by the engine's loops.
	ComputeCycles uint64
	// MemDemandCycles is the latency the cache hierarchy exposed to the CPU.
	MemDemandCycles uint64
	// ProducerCycles is fabric-side production time (RM engine only).
	ProducerCycles uint64
	// BytesFromDRAM is all data the run moved out of memory (demand,
	// prefetch, and fabric gathers).
	BytesFromDRAM uint64
	// BytesToCPU is the data that crossed into the cache hierarchy:
	// demand/prefetch lines for ROW and COL, packed fabric lines for RM.
	BytesToCPU uint64
	// PipelineCycles is the producer/consumer pipeline total before the
	// bandwidth floor (RM and PAR paths only; zero on demand paths). It is
	// what trace spans attribute as "pipeline", with TotalCycles -
	// PipelineCycles left as the bandwidth stall.
	PipelineCycles uint64
	// TotalCycles is the modeled execution time: the CPU path and producer
	// pipeline combined, floored by DRAM bandwidth occupancy.
	TotalCycles uint64
}

// CPUCycles returns the demand-path total (compute + exposed memory).
func (b Breakdown) CPUCycles() uint64 { return b.ComputeCycles + b.MemDemandCycles }

// GroupRow is one output row of a grouped aggregation.
type GroupRow struct {
	Key   []table.Value
	Aggs  []table.Value
	Count int64
}

// Result is the outcome of one query execution.
type Result struct {
	Engine      string
	RowsScanned int64
	RowsPassed  int64
	// Checksum is the order-insensitive fold of every consumed projected
	// value (projection scans only). Engines producing the same logical
	// result produce the same checksum.
	Checksum uint64
	// Aggs holds scalar aggregation results (no GROUP BY).
	Aggs []table.Value
	// Groups holds grouped results: in the canonical group order, or, under
	// the statement's sinks, in ORDER BY order (ties in canonical order)
	// and cut at the LIMIT.
	Groups    []GroupRow
	Breakdown Breakdown
	// CacheWarm reports that the run consumed a resident column group out
	// of the fabric group cache instead of gathering from DRAM (RM engine
	// with a GroupCache attached only). The logical result is identical
	// either way; only the modeled cost differs.
	CacheWarm bool
	// Offload names the fabric operator program this run pushed near memory
	// ("agg", "group-agg", "semi-join", "dict-scan", or combinations); empty
	// when every operator ran CPU-side. The logical result is identical
	// either way; only where the work was charged differs.
	Offload string
	// Morsels is how many morsels a PAR run split its scan into (zero on
	// the serial paths; a sharded table's run counts the shards it
	// touched), and MorselHW the counters of PAR's private System clones
	// summed in morsel order: hardware traffic the shared System never
	// sees. On one morsel's partial, MorselHW is that clone's.
	Morsels  int
	MorselHW HWStats

	// sunk is the group count before the limit once finishAggs has
	// ordered and cut Groups under the statement's sinks, and 0 when the
	// statement has none (ApplySinks charges the sort over it).
	sunk int
	// part is a partition's unfinished aggregate output (see RunPartial),
	// which Gather's merge reads in place of Aggs and Groups.
	part *aggOut
}

// EquivalentTo reports whether two results agree logically: same pass
// counts, checksums, aggregates (within eps for floats), and groups.
func (r *Result) EquivalentTo(o *Result, eps float64) error {
	if r.RowsPassed != o.RowsPassed {
		return fmt.Errorf("rows passed: %d vs %d", r.RowsPassed, o.RowsPassed)
	}
	if r.Checksum != o.Checksum {
		return fmt.Errorf("checksum: %#x vs %#x", r.Checksum, o.Checksum)
	}
	if len(r.Aggs) != len(o.Aggs) {
		return fmt.Errorf("aggregate count: %d vs %d", len(r.Aggs), len(o.Aggs))
	}
	for i := range r.Aggs {
		if err := valuesClose(r.Aggs[i], o.Aggs[i], eps); err != nil {
			return fmt.Errorf("aggregate %d: %w", i, err)
		}
	}
	if len(r.Groups) != len(o.Groups) {
		return fmt.Errorf("group count: %d vs %d", len(r.Groups), len(o.Groups))
	}
	for g := range r.Groups {
		a, b := r.Groups[g], o.Groups[g]
		if a.Count != b.Count {
			return fmt.Errorf("group %d count: %d vs %d", g, a.Count, b.Count)
		}
		for i := range a.Key {
			if !a.Key[i].Equal(b.Key[i]) {
				return fmt.Errorf("group %d key %d: %s vs %s", g, i, a.Key[i], b.Key[i])
			}
		}
		for i := range a.Aggs {
			if err := valuesClose(a.Aggs[i], b.Aggs[i], eps); err != nil {
				return fmt.Errorf("group %d aggregate %d: %w", g, i, err)
			}
		}
	}
	return nil
}

func valuesClose(a, b table.Value, eps float64) error {
	if a.Type != b.Type {
		return fmt.Errorf("type %s vs %s", a.Type, b.Type)
	}
	switch {
	case a.Equal(b):
		return nil
	case eps > 0:
		av, bv := a.Float, b.Float
		if av == 0 && bv == 0 {
			return nil
		}
		if math.Abs(av-bv) <= eps*math.Max(math.Abs(av), math.Abs(bv)) {
			return nil
		}
	}
	return fmt.Errorf("%s vs %s", a, b)
}

// String renders a compact summary.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: scanned=%d passed=%d cycles=%d", r.Engine, r.RowsScanned, r.RowsPassed, r.Breakdown.TotalCycles)
	if len(r.Aggs) > 0 {
		parts := make([]string, len(r.Aggs))
		for i, v := range r.Aggs {
			parts[i] = v.String()
		}
		fmt.Fprintf(&b, " aggs=[%s]", strings.Join(parts, ", "))
	}
	if len(r.Groups) > 0 {
		fmt.Fprintf(&b, " groups=%d", len(r.Groups))
	}
	return b.String()
}

// The canonical group order is the order every engine emits grouped output
// in, whatever order the groups were produced in: bytes.Compare on the
// groups' keys in the group table's format (vec.GroupTable), which orders
// key columns in turn by value and, among keys whose values compare equal
// (-0 and +0, NaN payloads), by their raw DOUBLE bits, so the order is
// strict and total.

// aggOut is an aggregation's unfinished output, the state its fold leaves:
// one state per term when the statement is ungrouped; else the group table
// its rows were assigned and folded on, whose keys hold the groups' values.
// Every fold leaves one — the batch pipeline, the fabric's offload fold,
// Gather's merge — and finishAggs is the one place
// it is finalized and boxed.
type aggOut struct {
	states []vec.AggState
	groups *vec.GroupTable
}

// finishAggs finishes q's fold output into r. A partition of a gathered
// run keeps it unfinished for mergePartials. Otherwise ungrouped states
// finalize into Aggs, and groups are ordered and cut under q.Sinks on
// their table, so only the rows r returns are boxed.
func (r *Result) finishAggs(out aggOut, q Query, part bool) {
	switch {
	case part:
		r.part = new(aggOut)
		*r.part = out
	case out.groups != nil:
		ts := &tableSet{g: out.groups, aggs: q.Aggregates}
		n := out.groups.Len()
		r.Groups = ts.rows(outputOrder(ts, n, q.Sinks))
		if !q.Sinks.Empty() {
			r.sunk = n
		}
	case out.states != nil:
		r.Aggs = make([]table.Value, len(out.states))
		for i, st := range out.states {
			r.Aggs[i] = st.Result(q.Aggregates[i].Kind)
		}
	}
}

// merge folds a partition's output, the next in partition order, into m:
// per term when ungrouped; else group by group on m's table, found by the
// partition's keys.
func (m *aggOut) merge(p *aggOut) {
	for t := range m.states {
		m.states[t].Merge(p.states[t])
	}
	if m.groups != nil {
		m.groups.Merge(p.groups)
	}
}

// outputOrder returns the ids of a group table's n groups in output order:
// sorted by the sinks' keys with Value.Compare's rule (negated for DESC),
// ties broken by the canonical group order, then cut at the limit. Each
// sort key is finalized once per group, into a column the comparisons
// read. When the limit cuts and no sort key is NaN, a bounded top-k picks
// the kept groups without sorting the rest. A NaN sort key compares equal
// to everything, which leaves the order to the sort algorithm, so then the
// ids are put in canonical order and stably sorted by the keys alone,
// exactly as a stable sort of canonically ordered rows would.
func outputOrder(gs *tableSet, n int, sk Sinks) []int32 {
	canon := gs.canon
	limit := n
	if sk.HasLimit && sk.Limit < int64(n) {
		limit = int(sk.Limit)
	}
	cols := make([]vec.Col, len(sk.Keys))
	nan := false
	for i, k := range sk.Keys {
		if k.Key >= 0 {
			gs.g.DecodeKeyCol(&cols[i], k.Key)
		} else {
			gs.g.FinishAggCol(&cols[i], k.Agg, gs.aggs[k.Agg].Kind)
		}
		nan = nan || cols[i].HasNaN()
	}
	byKeys := func(a, b int32) int {
		for i, k := range sk.Keys {
			c := cols[i].Cmp(a, b)
			if k.Desc {
				c = -c
			}
			if c != 0 {
				return c
			}
		}
		return 0
	}
	total := func(a, b int32) int {
		if c := byKeys(a, b); c != 0 {
			return c
		}
		return canon(a, b)
	}
	if limit < n && !nan {
		return topK(n, limit, total)
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	if nan {
		slices.SortFunc(order, canon)
		slices.SortStableFunc(order, byKeys)
	} else {
		slices.SortFunc(order, total)
	}
	return order[:limit]
}

// topK returns the first k of the positions 0..n-1 in the order of cmp, a
// strict total order, through a bounded max-heap: the heap's root is the
// kept position that sorts last, and a later position replaces it only
// when it sorts earlier.
func topK(n, k int, cmp func(a, b int32) int) []int32 {
	heap := make([]int32, 0, k)
	for i := 0; i < n && k > 0; i++ {
		r := int32(i)
		if len(heap) < k {
			heap = append(heap, r)
			for c := len(heap) - 1; c > 0; {
				p := (c - 1) / 2
				if cmp(heap[c], heap[p]) < 0 {
					break
				}
				heap[c], heap[p] = heap[p], heap[c]
				c = p
			}
			continue
		}
		if cmp(r, heap[0]) > 0 {
			continue
		}
		heap[0] = r
		for p := 0; ; {
			c := 2*p + 1
			if c >= k {
				break
			}
			if c+1 < k && cmp(heap[c+1], heap[c]) > 0 {
				c++
			}
			if cmp(heap[c], heap[p]) < 0 {
				break
			}
			heap[c], heap[p] = heap[p], heap[c]
			p = c
		}
	}
	slices.SortFunc(heap, cmp)
	return heap
}
