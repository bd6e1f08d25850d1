package engine

import (
	"math/bits"

	"rfabric/internal/plan"
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
// stable sort by the plan's keys (ties keep the pipeline's canonical group
// order, so output order is reproducible across engines), then the limit
// (see outputOrder). A result the batch pipeline already finished under the
// same sinks (RunSinks, JoinExec.Sinks) keeps its rows. Either way it
// charges n·⌈log₂n⌉·SortCmpCycles of modeled compute for the sort over the
// n groups before the limit, adds it to the result's breakdown, and returns
// the charge so traced runs can attribute it.
func ApplySinks(res *Result, sk Sinks) uint64 {
	if sk.Empty() {
		return 0
	}
	if res.sunk == 0 && len(res.Groups) > 0 {
		res.sunk = len(res.Groups)
		order := outputOrder(rowSet(res.Groups), len(res.Groups), sk, nil)
		out := make([]GroupRow, len(order))
		for i, g := range order {
			out[i] = res.Groups[g]
		}
		res.Groups = out
	}
	var cycles uint64
	if n := res.sunk; len(sk.Keys) > 0 && n > 1 {
		cycles = uint64(n) * uint64(bits.Len(uint(n-1))) * SortCmpCycles
		res.Breakdown.ComputeCycles += cycles
		res.Breakdown.TotalCycles += cycles
	}
	return cycles
}
