// Package expr defines the minimal expression vocabulary shared by the query
// engines, the SQL planner, and the Relational Memory pushdown path:
// column-vs-constant comparison predicates (conjunctions thereof) and
// aggregate specifications. Keeping the vocabulary small is deliberate — the
// paper argues fabric hardware stays adoptable only while its operations
// remain "simple and general" (Relational Fabric, ICDE 2023, §IV-B).
package expr

import (
	"fmt"
	"math"
	"strings"

	"rfabric/internal/geometry"
	"rfabric/internal/table"
)

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	Lt CmpOp = iota
	Le
	Eq
	Ne
	Ge
	Gt
)

// String returns the SQL spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case Lt:
		return "<"
	case Le:
		return "<="
	case Eq:
		return "="
	case Ne:
		return "<>"
	case Ge:
		return ">="
	case Gt:
		return ">"
	default:
		return fmt.Sprintf("CmpOp(%d)", uint8(op))
	}
}

// Holds evaluates `cmp op 0` where cmp is a three-way comparison result.
// It is the single definition of the comparison operators, shared by the
// scalar Predicate.Eval path and the vectorized kernels in internal/vec.
func (op CmpOp) Holds(cmp int) bool {
	switch op {
	case Lt:
		return cmp < 0
	case Le:
		return cmp <= 0
	case Eq:
		return cmp == 0
	case Ne:
		return cmp != 0
	case Ge:
		return cmp >= 0
	case Gt:
		return cmp > 0
	default:
		panic(fmt.Sprintf("expr: unknown operator %d", uint8(op)))
	}
}

// Predicate compares one column against a constant.
type Predicate struct {
	Col     int // schema column index
	Op      CmpOp
	Operand table.Value
}

// Eval applies the predicate to a column value.
func (p Predicate) Eval(v table.Value) bool {
	return p.Op.Holds(v.Compare(p.Operand))
}

// Validate checks the predicate against a schema.
func (p Predicate) Validate(s *geometry.Schema) error {
	if p.Col < 0 || p.Col >= s.NumColumns() {
		return fmt.Errorf("expr: predicate column %d out of range [0,%d)", p.Col, s.NumColumns())
	}
	if got, want := p.Operand.Type, s.Column(p.Col).Type; got != want {
		return fmt.Errorf("expr: predicate on column %q compares %s against %s", s.Column(p.Col).Name, want, got)
	}
	return nil
}

// String renders the predicate against a schema for diagnostics.
func (p Predicate) Format(s *geometry.Schema) string {
	return fmt.Sprintf("%s %s %s", s.Column(p.Col).Name, p.Op, p.Operand)
}

// Conjunction is an AND of predicates; empty means "true".
type Conjunction []Predicate

// Validate checks every predicate against the schema.
func (c Conjunction) Validate(s *geometry.Schema) error {
	for _, p := range c {
		if err := p.Validate(s); err != nil {
			return err
		}
	}
	return nil
}

// Columns returns the distinct column indices the conjunction touches, in
// first-appearance order.
func (c Conjunction) Columns() []int {
	var out []int
	seen := map[int]bool{}
	for _, p := range c {
		if !seen[p.Col] {
			seen[p.Col] = true
			out = append(out, p.Col)
		}
	}
	return out
}

// KeyRange returns the inclusive range [lo, hi] of integer keys that the
// conjunction's predicates on column col admit (an index's key column, a
// shard key); ok is false when none of them bounds col (<> bounds
// nothing). An empty range has lo > hi: col > MaxInt64 and col < MinInt64
// admit no key.
func (c Conjunction) KeyRange(col int) (lo, hi int64, ok bool) {
	lo, hi = math.MinInt64, math.MaxInt64
	for _, p := range c {
		v := p.Operand.Int
		switch {
		case p.Col != col || p.Op == Ne:
			continue
		case p.Op == Gt && v == math.MaxInt64, p.Op == Lt && v == math.MinInt64:
			return math.MaxInt64, math.MinInt64, true
		case p.Op == Gt:
			v++
		case p.Op == Lt:
			v--
		}
		ok = true
		if p.Op != Lt && p.Op != Le {
			lo = max(lo, v)
		}
		if p.Op != Gt && p.Op != Ge {
			hi = min(hi, v)
		}
	}
	return lo, hi, ok
}

// Format renders the conjunction for diagnostics.
func (c Conjunction) Format(s *geometry.Schema) string {
	if len(c) == 0 {
		return "true"
	}
	parts := make([]string, len(c))
	for i, p := range c {
		parts[i] = p.Format(s)
	}
	return strings.Join(parts, " AND ")
}

// AggKind enumerates the aggregate functions the engines (and the fabric's
// aggregation pushdown) support.
type AggKind uint8

// Aggregate kinds.
const (
	Count AggKind = iota
	Sum
	Min
	Max
	Avg
)

// String returns the SQL spelling of the aggregate.
func (k AggKind) String() string {
	switch k {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	case Avg:
		return "AVG"
	default:
		return fmt.Sprintf("AggKind(%d)", uint8(k))
	}
}

// AggSpec is one aggregate over a numeric column (Col ignored for COUNT).
// The folds that take AggSpecs — the fabric's offload program and the
// storage controller — keep float64 state, so CHAR columns are rejected for
// every kind, as the engines reject CHAR aggregate arguments.
type AggSpec struct {
	Kind AggKind
	Col  int
}

// Validate checks the spec against a schema.
func (a AggSpec) Validate(s *geometry.Schema) error {
	if a.Kind == Count {
		return nil
	}
	if a.Col < 0 || a.Col >= s.NumColumns() {
		return fmt.Errorf("expr: aggregate column %d out of range [0,%d)", a.Col, s.NumColumns())
	}
	if s.Column(a.Col).Type == geometry.Char {
		return fmt.Errorf("expr: %s over CHAR column %q", a.Kind, s.Column(a.Col).Name)
	}
	return nil
}
