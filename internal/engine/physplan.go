package engine

import (
	"math/bits"

	"rfabric/internal/plan"
)

// This file bridges the engine to the physical plan IR in internal/plan:
// lowering a logical Query to an operator chain, extracting the executable
// Query back out, pricing a plan's access paths, and charging the sinks'
// sort.

// PlanOf lowers a logical Query to the physical plan IR: a Scan over the
// columns the query touches, a Filter when it selects, the consumption
// shape (Project or Aggregate), and the sinks (OrderBy, Limit). The scan's
// source is left for the optimizer (or the caller's dispatch) to stamp.
// PlanOf and FromPlan are inverses.
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
	if len(q.Sinks.Keys) > 0 {
		root = root.OrderBy(q.Sinks.Keys)
	}
	if q.Sinks.HasLimit {
		root = root.Limit(q.Sinks.Limit)
	}
	return root
}

// Sinks are the plan operators that run over the pipeline's grouped output
// rather than inside it: a deterministic sort and a row limit. They ride on
// the Query (Query.Sinks), and every executor's finisher applies them.
type Sinks struct {
	Keys     []plan.SortKey
	Limit    int64
	HasLimit bool
}

// Empty reports whether there is no sink work to do.
func (s Sinks) Empty() bool { return len(s.Keys) == 0 && !s.HasLimit }

// FromPlan validates an IR chain and returns the Query the pipeline
// executes, sinks included, and those sinks again for the caller that
// charges them (ApplySinks).
func FromPlan(root *plan.Node) (Query, Sinks, error) {
	var q Query
	if err := root.Validate(); err != nil {
		return q, Sinks{}, err
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
			q.Sinks.Keys = cur.Keys
		case plan.OpLimit:
			q.Sinks.Limit = cur.N
			q.Sinks.HasLimit = true
		}
	}
	return q, q.Sinks, nil
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

// ApplySinks charges a finished result for its statement's sinks: every
// executor already ordered and cut the groups on its group table
// (finishAggs), so the result holds only the rows the statement returns.
// It charges n·⌈log₂n⌉·SortCmpCycles of modeled compute for the sort over
// the n groups before the limit, adds it to the result's breakdown, and
// returns the charge so traced runs can attribute it.
func ApplySinks(res *Result, sk Sinks) uint64 {
	n := res.sunk
	if len(sk.Keys) == 0 || n < 2 {
		return 0
	}
	cycles := uint64(n) * uint64(bits.Len(uint(n-1))) * SortCmpCycles
	res.Breakdown.ComputeCycles += cycles
	res.Breakdown.TotalCycles += cycles
	return cycles
}
