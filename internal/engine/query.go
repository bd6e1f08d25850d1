// Package engine implements the query-execution paths the paper compares
// (ICDE 2023, §V) as access-path Sources plugged into one shared operator
// pipeline: a volcano-style tuple-at-a-time path over the row-oriented base
// data (ROW), a column-at-a-time path over a materialized columnar copy
// (COL), a path over Relational Memory's ephemeral views (RM), and a B+tree
// path for selections that pin an indexed column (IDX). Each Source
// describes only where a query's bytes live and what each touched byte
// costs; the scan and consume loops live once, in the batch executor of
// pipeline.go and pipeline_vec.go, which charges each row as the modeled
// path would (a ROW row pays the volcano iterator's overhead). All
// paths run the same logical queries, produce identical results, and charge
// their work to a shared performance model (simulated CPU cycles + the
// cache/DRAM hierarchy), so their relative execution times reproduce the
// paper's figures. physplan.go bridges to the physical plan IR in
// internal/plan (lowering, pricing, sink operators).
package engine

import (
	"errors"
	"fmt"

	"rfabric/internal/expr"
	"rfabric/internal/geometry"
)

// AggTerm is one output aggregate. Arg may be any scalar expression
// (TPC-H Q1 uses derived terms like extendedprice*(1-discount)); it is nil
// for COUNT(*).
type AggTerm struct {
	Kind expr.AggKind
	Arg  expr.Scalar
}

// Format renders the term against a schema.
func (a AggTerm) Format(s *geometry.Schema) string {
	if a.Arg == nil {
		return a.Kind.String() + "(*)"
	}
	return fmt.Sprintf("%s(%s)", a.Kind, a.Arg.Format(s))
}

// Query is the logical query all engines execute.
//
// Exactly one consumption shape applies:
//   - Aggregates empty: a projection scan — every value of Projection for
//     every qualifying row is folded into an order-insensitive checksum
//     (the microbenchmark consumer behind Figures 5 and 6).
//   - Aggregates set, GroupBy empty: scalar aggregation (TPC-H Q6).
//   - Aggregates and GroupBy set: hash aggregation (TPC-H Q1).
type Query struct {
	Projection []int
	Selection  expr.Conjunction
	GroupBy    []int
	Aggregates []AggTerm
	// Snapshot, when non-nil, runs the query at that MVCC snapshot. Only
	// meaningful for tables created with MVCC headers.
	Snapshot *uint64
	// Sinks are the statement's ORDER BY / LIMIT (grouped output only).
	// Every executor finishes them on its group table, so a result holds
	// only the rows the statement returns; ApplySinks then charges the
	// sort.
	Sinks Sinks
}

// Validate checks the query against a schema.
func (q Query) Validate(s *geometry.Schema) error {
	if len(q.Projection) == 0 && len(q.Aggregates) == 0 {
		return errors.New("engine: query consumes nothing (no projection, no aggregates)")
	}
	for _, c := range q.Projection {
		if c < 0 || c >= s.NumColumns() {
			return fmt.Errorf("engine: projection column %d out of range [0,%d)", c, s.NumColumns())
		}
	}
	if err := q.Selection.Validate(s); err != nil {
		return err
	}
	for _, c := range q.GroupBy {
		if c < 0 || c >= s.NumColumns() {
			return fmt.Errorf("engine: group-by column %d out of range [0,%d)", c, s.NumColumns())
		}
	}
	if len(q.GroupBy) > 0 && len(q.Aggregates) == 0 {
		return errors.New("engine: GROUP BY without aggregates")
	}
	for _, a := range q.Aggregates {
		if a.Arg == nil {
			if a.Kind != expr.Count {
				return fmt.Errorf("engine: %s aggregate needs an argument", a.Kind)
			}
			continue
		}
		if err := expr.ValidateScalar(a.Arg, s); err != nil {
			return err
		}
	}
	return nil
}

// NeededColumns returns the distinct schema columns the query touches, in
// ascending order grouped as: projection (in declared order), then
// selection, group-by, and aggregate-argument columns not already present.
// This is the geometry the RM engine configures.
func (q Query) NeededColumns() []int { return q.columns(true) }

// consumedColumns returns the columns read after selection passes:
// projection plus group-by plus aggregate arguments.
func (q Query) consumedColumns() []int { return q.columns(false) }

// columns lists the distinct columns of the projection, the selection
// (withSel), the group-by and the aggregate arguments, in that order.
func (q Query) columns(withSel bool) []int {
	seen := map[int]bool{}
	var out []int
	add := func(cs ...int) {
		for _, c := range cs {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	add(q.Projection...)
	if withSel {
		for _, p := range q.Selection {
			add(p.Col)
		}
	}
	add(q.GroupBy...)
	for _, a := range q.Aggregates {
		if a.Arg != nil {
			add(a.Arg.Columns()...)
		}
	}
	return out
}
