package engine

import (
	"math"
	"math/bits"
	"slices"

	"rfabric/internal/geometry"
	"rfabric/internal/plan"
	"rfabric/internal/table"
)

// This file bridges the engine to the physical plan IR in internal/plan:
// lowering a logical Query to an operator chain, extracting the executable
// Query and sink operators back out, pricing a plan's access paths, and
// running the sinks over grouped output.

// PlanOf lowers a logical Query to the physical plan IR: a Scan over the
// columns the query touches, a Filter when it selects, and the consumption
// shape (Project or Aggregate). The scan's source is left for the optimizer
// (or the caller's dispatch) to stamp.
func PlanOf(q Query, table string) *plan.Node {
	scan := plan.NewScan(table, "", q.NeededColumns())
	scan.Snapshot = q.Snapshot
	root := scan
	if len(q.Selection) > 0 {
		root = root.Filter(q.Selection)
	}
	if len(q.Aggregates) > 0 {
		aggs := make([]plan.Agg, len(q.Aggregates))
		for i, a := range q.Aggregates {
			aggs[i] = plan.Agg{Kind: a.Kind, Arg: a.Arg}
		}
		root = root.Aggregate(q.GroupBy, aggs)
	} else {
		root = root.Project(q.Projection)
	}
	return root
}

// Sinks are the plan operators that run over the pipeline's grouped output
// rather than inside it: a deterministic sort and a row limit.
type Sinks struct {
	Keys     []plan.SortKey
	Limit    int64
	HasLimit bool
}

// Empty reports whether there is no sink work to do.
func (s Sinks) Empty() bool { return len(s.Keys) == 0 && !s.HasLimit }

// FromPlan validates an IR chain and splits it into the Query the pipeline
// executes and the sinks that run over its output.
func FromPlan(root *plan.Node) (Query, Sinks, error) {
	var q Query
	var sk Sinks
	if err := root.Validate(); err != nil {
		return q, sk, err
	}
	for cur := root; cur != nil; cur = cur.Input {
		switch cur.Op {
		case plan.OpScan:
			q.Snapshot = cur.Snapshot
		case plan.OpFilter:
			q.Selection = cur.Preds
		case plan.OpProject:
			q.Projection = cur.Cols
		case plan.OpAggregate:
			q.GroupBy = cur.GroupBy
			q.Aggregates = make([]AggTerm, len(cur.Aggs))
			for i, a := range cur.Aggs {
				q.Aggregates[i] = AggTerm{Kind: a.Kind, Arg: a.Arg}
			}
		case plan.OpOrderBy:
			sk.Keys = cur.Keys
		case plan.OpLimit:
			sk.Limit = cur.N
			sk.HasLimit = true
		}
	}
	return q, sk, nil
}

// ChoosePlan prices the plan's access paths, stamps the winner — and the
// estimate it won with — on the Scan node, and returns the decision. This is
// the constructive optimizer's IR entry point; Choose remains for callers
// holding a raw Query.
func (o *Optimizer) ChoosePlan(root *plan.Node) (*Plan, error) {
	q, _, err := FromPlan(root)
	if err != nil {
		return nil, err
	}
	p, err := o.Choose(q)
	if err != nil {
		return nil, err
	}
	scan := root.Scan()
	scan.Source = p.Chosen
	chosen := p.Estimates[0]
	scan.Est = &chosen
	if chosen.Offloaded {
		if off, ok := offloadProgram(q); ok {
			scan.Offload = off.Describe()
		}
	}
	return p, nil
}

// ApplySinks runs the sink operators over a grouped result in place: a
// stable sort by the plan's keys (ties keep the pipeline's deterministic
// key order, so output order is reproducible across engines), then the
// limit. When the limit cuts the output, only the first Limit rows of that
// stable order are selected (a bounded top-k); the rows and their order
// are the same as sorting everything. A NaN sort key compares equal to
// everything, which leaves the order to the sort algorithm, so then the
// full stable sort runs instead. It charges n·⌈log₂n⌉·SortCmpCycles
// of modeled compute for the sort either way, adds it to the result's
// breakdown, and returns the charge so traced runs can attribute it.
func ApplySinks(res *Result, sk Sinks) uint64 {
	if sk.Empty() {
		return 0
	}
	var cycles uint64
	if len(sk.Keys) > 0 {
		n := len(res.Groups)
		cmp := func(a, b *GroupRow) int {
			for _, k := range sk.Keys {
				var c int
				if k.Key >= 0 {
					c = a.Key[k.Key].Compare(b.Key[k.Key])
				} else {
					c = a.Aggs[k.Agg].Compare(b.Aggs[k.Agg])
				}
				if k.Desc {
					c = -c
				}
				if c != 0 {
					return c
				}
			}
			return 0
		}
		if sk.HasLimit && sk.Limit >= 0 && sk.Limit < int64(n) && !sortKeysHaveNaN(res.Groups, sk.Keys) {
			res.Groups = stableTopK(res.Groups, int(sk.Limit), cmp)
		} else {
			slices.SortStableFunc(res.Groups, func(a, b GroupRow) int { return cmp(&a, &b) })
		}
		if n > 1 {
			cycles = uint64(n) * uint64(bits.Len(uint(n-1))) * SortCmpCycles
		}
		res.Breakdown.ComputeCycles += cycles
		res.Breakdown.TotalCycles += cycles
	}
	if sk.HasLimit && int64(len(res.Groups)) > sk.Limit {
		res.Groups = res.Groups[:sk.Limit]
	}
	return cycles
}

// sortKeysHaveNaN reports whether any row has a NaN in a sort key.
func sortKeysHaveNaN(rows []GroupRow, keys []plan.SortKey) bool {
	for i := range rows {
		for _, k := range keys {
			var v table.Value
			if k.Key >= 0 {
				v = rows[i].Key[k.Key]
			} else {
				v = rows[i].Aggs[k.Agg]
			}
			if v.Type == geometry.Float64 && math.IsNaN(v.Float) {
				return true
			}
		}
	}
	return false
}

// stableTopK returns the first k rows of the stable sort of rows by cmp,
// in order, through a bounded max-heap over (cmp, input index): the heap's
// root is the kept row that sorts last, and a later row replaces it only
// when it sorts strictly earlier.
func stableTopK(rows []GroupRow, k int, cmp func(a, b *GroupRow) int) []GroupRow {
	// after reports whether row i sorts after row j in the stable order.
	after := func(i, j int32) bool {
		if c := cmp(&rows[i], &rows[j]); c != 0 {
			return c > 0
		}
		return i > j
	}
	heap := make([]int32, 0, k)
	for i := range rows {
		r := int32(i)
		if len(heap) < k {
			heap = append(heap, r)
			for c := len(heap) - 1; c > 0; {
				p := (c - 1) / 2
				if !after(heap[c], heap[p]) {
					break
				}
				heap[c], heap[p] = heap[p], heap[c]
				c = p
			}
			continue
		}
		if k == 0 || !after(heap[0], r) {
			continue
		}
		heap[0] = r
		for p := 0; ; {
			c := 2*p + 1
			if c >= k {
				break
			}
			if c+1 < k && after(heap[c+1], heap[c]) {
				c++
			}
			if !after(heap[c], heap[p]) {
				break
			}
			heap[c], heap[p] = heap[p], heap[c]
			p = c
		}
	}
	slices.SortFunc(heap, func(a, b int32) int {
		switch {
		case a == b:
			return 0
		case after(a, b):
			return 1
		}
		return -1
	})
	out := make([]GroupRow, len(heap))
	for i, r := range heap {
		out[i] = rows[r]
	}
	return out
}
