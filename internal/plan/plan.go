// Package plan defines the physical plan IR every execution path shares.
//
// The paper's constructive optimizer (§III-B) prices *access paths*, not
// operator implementations: with the fabric present, any data geometry is
// available on demand, so the only real decision is where the bytes come
// from and what each touched byte costs. The IR encodes that split. A plan
// is an operator chain
//
//	Scan → [Filter] → [Join]* → (Project | Aggregate) → [OrderBy] → [Limit]
//
// where the Scan node names the table and the chosen access path (its
// Source: ROW, COL, RM, IDX, PAR — or AUTO before pricing), and everything
// above it is engine-independent. One shared pipeline in internal/engine
// executes the chain; each engine contributes only its Source.
//
// Join nodes make the chain a left-deep tree: a Join's Input is the probe
// side (another Join, or a [Filter]→Scan chain) and its Build field is the
// build side (always a [Filter]→Scan chain over a base table). Each side is
// a full Source-backed subplan the optimizer prices independently. Column
// indices above a Join live in the join's combined namespace — the probe
// subtree's columns followed by each build table's columns in join order —
// so the probe table's local indices coincide with the combined prefix.
//
// The package depends only on the expression and schema layers so both the
// SQL front end and the engines can build and inspect plans without import
// cycles.
package plan

import (
	"errors"
	"fmt"
	"strings"

	"rfabric/internal/expr"
	"rfabric/internal/geometry"
)

// Op enumerates the physical operators.
type Op uint8

// Physical operators, innermost (Scan) to outermost (Limit).
const (
	OpScan Op = iota
	OpFilter
	OpProject
	OpAggregate
	OpOrderBy
	OpLimit
	OpJoin
)

// String returns the operator's EXPLAIN spelling.
func (o Op) String() string {
	switch o {
	case OpScan:
		return "Scan"
	case OpFilter:
		return "Filter"
	case OpProject:
		return "Project"
	case OpAggregate:
		return "Aggregate"
	case OpOrderBy:
		return "OrderBy"
	case OpLimit:
		return "Limit"
	case OpJoin:
		return "Join"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Agg is one aggregate output term: COUNT(*) when Arg is nil, otherwise
// Kind over an arbitrary scalar expression.
type Agg struct {
	Kind expr.AggKind
	Arg  expr.Scalar
}

// Format renders the term against a schema.
func (a Agg) Format(s *geometry.Schema) string {
	if a.Arg == nil {
		return a.Kind.String() + "(*)"
	}
	return fmt.Sprintf("%s(%s)", a.Kind, a.Arg.Format(s))
}

// SortKey orders grouped output by one output column of the Aggregate
// below: either group key GroupBy[Key] (Agg == -1) or aggregate Aggs[Agg]
// (Key == -1). Exactly one of the two indices is >= 0.
type SortKey struct {
	Key  int // index into the aggregate's group keys, or -1
	Agg  int // index into the aggregate's output terms, or -1
	Desc bool
}

// Node is one operator in the chain. Input is nil only for Scan. Which
// fields are meaningful depends on Op:
//
//	Scan      Table, Source, Snapshot, Cols (columns the path must deliver)
//	Filter    Preds
//	Project   Cols (projected columns, duplicates allowed)
//	Aggregate GroupBy, Aggs
//	OrderBy   Keys
//	Limit     N
//	Join      Build, ProbeKey, BuildKey
type Node struct {
	Op    Op
	Input *Node

	Table    string
	Source   string
	Snapshot *uint64
	Cols     []int

	Preds expr.Conjunction

	GroupBy []int
	Aggs    []Agg

	Keys []SortKey

	N int64

	// Join fields. Build is the build side's [Filter]→Scan chain. ProbeKey
	// indexes the probe subtree's combined namespace; BuildKey indexes the
	// build table's own schema.
	Build    *Node
	ProbeKey int
	BuildKey int

	// Sch, when set, names this node's column indices in Explain instead of
	// the schema the caller passes — join trees set it so nodes above a Join
	// render against the combined namespace while each side's nodes render
	// against their own table schema.
	Sch *geometry.Schema

	// Est and Act carry the optimizer-accountability pair for the access
	// path rooted at this Scan: the estimate the plan was priced with and
	// what execution actually measured. Both are nil until stamped (Est by
	// ChoosePlan / join-side pricing, Act by the executors), so plans that
	// were never priced or never ran render exactly as before.
	Est *Est
	Act *Act

	// Offload names the fabric operator program this Scan pushes near memory
	// ("agg", "group-agg", "semi-join", "dict-scan", or combinations). Empty
	// means every operator runs CPU-side and the node renders exactly as
	// before.
	Offload string
}

// Est is the optimizer's priced prediction for one access path: the engine
// it prices, the modeled cycles it predicted, the selectivity it assumed, and
// the input cardinality the pricing saw. EXPLAIN renders it as the pricing
// block; est_rows for operators above the Scan derive from Rows×Selectivity.
type Est struct {
	Engine      string
	Cycles      float64
	Selectivity float64
	Rows        float64
	// Available reports whether the path can run (e.g. COL needs an
	// existing columnar copy; it is the layout duplication the fabric
	// removes, so the optimizer never asks for one to be built). Reason
	// explains an unavailable path.
	Available bool
	Reason    string
	// Warm marks an RM estimate priced against a resident fabric group-
	// cache entry (buffer replay) rather than a cold DRAM gather.
	Warm bool
	// Offloaded marks an RM estimate priced for a fabric operator offload:
	// the consumer side collapses to reading the reduced result, so
	// bytes-to-CPU is the dominant term that separates it from CPU-side
	// plans.
	Offloaded bool
}

// EstRowsOut is the predicted output cardinality of the side's Filter (its
// Scan feeds Rows rows in; Selectivity of them survive).
func (e *Est) EstRowsOut() float64 {
	if e == nil {
		return 0
	}
	return e.Rows * e.Selectivity
}

// Act is what one access path's execution actually measured: rows in, rows
// surviving selection, and the side's modeled cycles.
type Act struct {
	RowsScanned int64
	RowsPassed  int64
	Cycles      uint64
}

// Selectivity is the observed survivor fraction.
func (a *Act) Selectivity() float64 {
	if a == nil || a.RowsScanned == 0 {
		return 0
	}
	return float64(a.RowsPassed) / float64(a.RowsScanned)
}

// QError is the symmetric cycle misprediction factor max(est/act, act/est)
// between a stamped estimate and measurement, or 0 when either is missing.
func QError(est, act float64) float64 {
	if est <= 0 || act <= 0 {
		return 0
	}
	if est > act {
		return est / act
	}
	return act / est
}

// NewScan starts a chain at an access-path scan. source may be empty until
// the optimizer prices the plan.
func NewScan(table, source string, cols []int) *Node {
	return &Node{Op: OpScan, Table: table, Source: source, Cols: cols}
}

// Filter appends a predicate operator and returns the new chain head.
func (n *Node) Filter(preds expr.Conjunction) *Node {
	return &Node{Op: OpFilter, Input: n, Preds: preds}
}

// Project appends a projection (checksum consumption) operator.
func (n *Node) Project(cols []int) *Node {
	return &Node{Op: OpProject, Input: n, Cols: cols}
}

// Aggregate appends a (possibly grouped) aggregation operator.
func (n *Node) Aggregate(groupBy []int, aggs []Agg) *Node {
	return &Node{Op: OpAggregate, Input: n, GroupBy: groupBy, Aggs: aggs}
}

// Join appends an equi-join: the receiver becomes the probe side and build
// the build side. probeKey indexes the probe subtree's combined namespace;
// buildKey indexes the build table's schema.
func (n *Node) Join(build *Node, probeKey, buildKey int) *Node {
	return &Node{Op: OpJoin, Input: n, Build: build, ProbeKey: probeKey, BuildKey: buildKey}
}

// OrderBy appends a sort sink over grouped output.
func (n *Node) OrderBy(keys []SortKey) *Node {
	return &Node{Op: OpOrderBy, Input: n, Keys: keys}
}

// Limit appends a row-limit sink.
func (n *Node) Limit(count int64) *Node {
	return &Node{Op: OpLimit, Input: n, N: count}
}

// Scan returns the chain's innermost node along the Input spine, which
// Validate guarantees is an access-path scan (the probe side's scan in a
// join tree; build-side scans are reached through each Join's Build field).
func (n *Node) Scan() *Node {
	cur := n
	for cur.Input != nil {
		cur = cur.Input
	}
	return cur
}

// HasJoin reports whether the tree contains a Join operator.
func (n *Node) HasJoin() bool {
	for cur := n; cur != nil; cur = cur.Input {
		if cur.Op == OpJoin {
			return true
		}
	}
	return false
}

// Joins returns the spine's Join nodes outermost-first (nil for linear
// chains).
func (n *Node) Joins() []*Node {
	var out []*Node
	for cur := n; cur != nil; cur = cur.Input {
		if cur.Op == OpJoin {
			out = append(out, cur)
		}
	}
	return out
}

// Aggregation returns the chain's Aggregate node, or nil.
func (n *Node) Aggregation() *Node {
	for cur := n; cur != nil; cur = cur.Input {
		if cur.Op == OpAggregate {
			return cur
		}
	}
	return nil
}

// Validate checks the tree's structure against the one plan grammar:
// [Limit] over [OrderBy] over exactly one Project or Aggregate, over a
// left-deep spine of Joins whose sides are [Filter]→Scan chains — or, for a
// single-table statement (the zero-join case), over one [Filter]→Scan
// chain. Sinks need grouped aggregation output and sort keys reference its
// output. Predicates live on the sides: a Filter directly above a Join is
// out of order, because the lowering pushes every conjunct to the side that
// owns its column.
func (n *Node) Validate() error {
	cur := n
	var lim, ob *Node
	if cur.Op == OpLimit {
		lim, cur = cur, cur.Input
	}
	if cur != nil && cur.Op == OpOrderBy {
		ob, cur = cur, cur.Input
	}
	if cur == nil || (cur.Op != OpProject && cur.Op != OpAggregate) {
		return errors.New("plan: statement needs exactly one Project or Aggregate under its sinks")
	}
	consume := cur
	if consume.Op == OpAggregate {
		if len(consume.Aggs) == 0 {
			return errors.New("plan: Aggregate with no aggregate terms")
		}
	} else if len(consume.Cols) == 0 {
		return errors.New("plan: Project with no columns")
	}
	grouped := consume.Op == OpAggregate && len(consume.GroupBy) > 0
	if ob != nil {
		if !grouped {
			return errors.New("plan: OrderBy requires grouped aggregation output")
		}
		if len(ob.Keys) == 0 {
			return errors.New("plan: OrderBy with no keys")
		}
		for _, k := range ob.Keys {
			switch {
			case k.Key >= 0 && k.Agg < 0:
				if k.Key >= len(consume.GroupBy) {
					return fmt.Errorf("plan: sort key references group key %d of %d", k.Key, len(consume.GroupBy))
				}
			case k.Agg >= 0 && k.Key < 0:
				if k.Agg >= len(consume.Aggs) {
					return fmt.Errorf("plan: sort key references aggregate %d of %d", k.Agg, len(consume.Aggs))
				}
			default:
				return errors.New("plan: sort key must name exactly one of group key or aggregate")
			}
		}
	}
	if lim != nil {
		if !grouped {
			return errors.New("plan: Limit requires grouped aggregation output")
		}
		if lim.N < 0 {
			return fmt.Errorf("plan: negative Limit %d", lim.N)
		}
	}
	if in := consume.Input; in != nil && in.Op == OpJoin {
		return validateJoinNode(in)
	}
	return validateSideChain(consume.Input, "table")
}

// validateJoinNode checks one Join and recurses down the probe spine.
func validateJoinNode(j *Node) error {
	if j.ProbeKey < 0 || j.BuildKey < 0 {
		return errors.New("plan: Join needs non-negative probe and build keys")
	}
	if j.Build == nil {
		return errors.New("plan: Join has no build side")
	}
	if err := validateSideChain(j.Build, "build"); err != nil {
		return err
	}
	probe := j.Input
	if probe == nil {
		return errors.New("plan: Join has no probe side")
	}
	if probe.Op == OpJoin {
		return validateJoinNode(probe)
	}
	return validateSideChain(probe, "probe")
}

// validateSideChain checks one join side, or a single-table statement's
// input: an optional Filter over a Scan of a base table.
func validateSideChain(n *Node, side string) error {
	cur := n
	if cur != nil && cur.Op == OpFilter {
		if len(cur.Preds) == 0 {
			return fmt.Errorf("plan: %s-side Filter with no predicates", side)
		}
		cur = cur.Input
	}
	if cur == nil || cur.Op != OpScan {
		return fmt.Errorf("plan: %s side must be a [Filter]→Scan chain", side)
	}
	if cur.Table == "" {
		return errors.New("plan: Scan has no table")
	}
	if cur.Input != nil {
		return fmt.Errorf("plan: %s-side Scan has an input", side)
	}
	return nil
}

// Explain renders the tree as an indented operator tree, outermost first.
// sch may be nil; columns then print as ordinals. A node's Sch field, when
// set, overrides sch for naming that node's columns. A Join renders its
// build subtree (├─) before continuing down the probe spine (└─).
func (n *Node) Explain(sch *geometry.Schema) string {
	var b strings.Builder
	n.render(&b, sch, 0, "└─ ")
	return b.String()
}

func (n *Node) render(b *strings.Builder, sch *geometry.Schema, depth int, connector string) {
	if depth > 0 {
		b.WriteString("\n")
		b.WriteString(strings.Repeat("  ", depth-1))
		b.WriteString(connector)
	}
	b.WriteString(n.describe(sch))
	if n.Op == OpJoin && n.Build != nil {
		n.Build.render(b, sch, depth+1, "├─ ")
	}
	if n.Input != nil {
		n.Input.render(b, sch, depth+1, "└─ ")
	}
}

// Describe renders one node's EXPLAIN line (without tree structure); traced
// runs use it to annotate per-operator spans.
func (n *Node) Describe(sch *geometry.Schema) string { return n.describe(sch) }

func (c *Node) describe(sch *geometry.Schema) string {
	if c.Sch != nil {
		sch = c.Sch
	}
	colName := func(col int) string {
		if sch != nil && col >= 0 && col < sch.NumColumns() {
			return sch.Column(col).Name
		}
		return fmt.Sprintf("#%d", col)
	}
	colList := func(cols []int) string {
		parts := make([]string, len(cols))
		for i, col := range cols {
			parts[i] = colName(col)
		}
		return strings.Join(parts, ", ")
	}
	switch c.Op {
	case OpScan:
		src := c.Source
		if src == "" {
			src = "?"
		}
		s := fmt.Sprintf("Scan[%s source=%s cols=(%s)]", c.Table, src, colList(c.Cols))
		if c.Snapshot != nil {
			s += fmt.Sprintf(" @snapshot=%d", *c.Snapshot)
		}
		if c.Offload != "" {
			s += fmt.Sprintf(" offload=%s", c.Offload)
		}
		// The pricing block: the estimate this side was planned with, and —
		// after an EXPLAIN ANALYZE run — what actually happened, so the
		// cost-model error is visible per access path.
		if c.Est != nil {
			warm := ""
			if c.Est.Warm {
				warm = " warm"
			}
			if c.Est.Offloaded {
				warm += " offload"
			}
			s += fmt.Sprintf(" est[%s≈%.0f sel=%.3f rows=%.0f%s]",
				c.Est.Engine, c.Est.Cycles, c.Est.Selectivity, c.Est.Rows, warm)
		}
		if c.Act != nil {
			s += fmt.Sprintf(" act[cycles=%d sel=%.3f rows=%d]",
				c.Act.Cycles, c.Act.Selectivity(), c.Act.RowsScanned)
			if c.Est != nil {
				s += fmt.Sprintf(" q_err=%.2f", QError(c.Est.Cycles, float64(c.Act.Cycles)))
			}
		}
		return s
	case OpFilter:
		if sch != nil {
			return fmt.Sprintf("Filter[%s]", c.Preds.Format(sch))
		}
		return fmt.Sprintf("Filter[%d predicates]", len(c.Preds))
	case OpProject:
		return fmt.Sprintf("Project[%s]", colList(c.Cols))
	case OpAggregate:
		terms := make([]string, len(c.Aggs))
		for i, a := range c.Aggs {
			if sch != nil {
				terms[i] = a.Format(sch)
			} else if a.Arg == nil {
				terms[i] = a.Kind.String() + "(*)"
			} else {
				terms[i] = a.Kind.String() + "(…)"
			}
		}
		if len(c.GroupBy) == 0 {
			return fmt.Sprintf("Aggregate[%s]", strings.Join(terms, ", "))
		}
		return fmt.Sprintf("Aggregate[group=(%s) aggs=(%s)]", colList(c.GroupBy), strings.Join(terms, ", "))
	case OpOrderBy:
		agg := c
		for agg != nil && agg.Op != OpAggregate {
			agg = agg.Input
		}
		parts := make([]string, len(c.Keys))
		for i, k := range c.Keys {
			var label string
			switch {
			case k.Key >= 0 && agg != nil && k.Key < len(agg.GroupBy):
				label = colName(agg.GroupBy[k.Key])
			case k.Key >= 0:
				label = fmt.Sprintf("key#%d", k.Key)
			default:
				label = fmt.Sprintf("agg#%d", k.Agg)
			}
			if k.Desc {
				label += " DESC"
			}
			parts[i] = label
		}
		return fmt.Sprintf("OrderBy[%s]", strings.Join(parts, ", "))
	case OpLimit:
		return fmt.Sprintf("Limit[%d]", c.N)
	case OpJoin:
		buildName := fmt.Sprintf("#%d", c.BuildKey)
		if c.Build != nil {
			bs := c.Build.Scan()
			if bs.Sch != nil && c.BuildKey >= 0 && c.BuildKey < bs.Sch.NumColumns() {
				buildName = bs.Sch.Column(c.BuildKey).Name
			}
		}
		return fmt.Sprintf("Join[%s = %s]", colName(c.ProbeKey), buildName)
	default:
		return c.Op.String()
	}
}
