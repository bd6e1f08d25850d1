package sql

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"slices"
	"strings"
	"time"

	"rfabric/internal/expr"
	"rfabric/internal/geometry"
	"rfabric/internal/plan"
	"rfabric/internal/table"
)

// colResolver maps (possibly qualified) column names onto a schema. The
// single-table resolver strips the table's own qualifier; the join resolver
// in lower.go resolves over the combined namespace.
type colResolver struct {
	sch     *geometry.Schema
	resolve func(name string) (int, error)
}

// tableResolver resolves names against one table: bare names and names
// qualified with the table's own name.
func tableResolver(tableName string, sch *geometry.Schema) *colResolver {
	return &colResolver{sch: sch, resolve: func(name string) (int, error) {
		n := name
		if rest, ok := strings.CutPrefix(n, tableName+"."); ok {
			n = rest
		}
		c, ok := sch.Lookup(n)
		if !ok {
			return 0, fmt.Errorf("sql: unknown column %q", name)
		}
		return c, nil
	}}
}

// planConsume plans the consumption shape — the projection, or the group
// keys and aggregate terms — against a resolver. Selection is the caller's:
// the lowering routes each conjunct to the side that owns its column.
func planConsume(st *Stmt, res *colResolver) (proj, groupBy []int, aggs []plan.Agg, err error) {
	hasAgg := false
	for _, item := range st.Items {
		if item.Agg != nil {
			hasAgg = true
			break
		}
	}

	for _, item := range st.Items {
		switch {
		case item.Agg != nil:
			a, err := planAgg(item.Agg, res)
			if err != nil {
				return nil, nil, nil, err
			}
			aggs = append(aggs, a)
		case hasAgg:
			// A bare column alongside aggregates must be a group key; SQL
			// requires it to appear in GROUP BY.
			if _, err := res.resolve(item.Column); err != nil {
				return nil, nil, nil, err
			}
			if !slices.Contains(st.GroupBy, item.Column) {
				return nil, nil, nil, fmt.Errorf("sql: column %q must appear in GROUP BY", item.Column)
			}
		default:
			c, err := res.resolve(item.Column)
			if err != nil {
				return nil, nil, nil, err
			}
			proj = append(proj, c)
		}
	}

	for _, g := range st.GroupBy {
		c, err := res.resolve(g)
		if err != nil {
			return nil, nil, nil, err
		}
		groupBy = append(groupBy, c)
	}
	if len(groupBy) > 0 && !hasAgg {
		return nil, nil, nil, errors.New("sql: GROUP BY without aggregates")
	}
	return proj, groupBy, aggs, nil
}

func planAgg(call *AggCall, res *colResolver) (plan.Agg, error) {
	kinds := map[string]expr.AggKind{
		"COUNT": expr.Count, "SUM": expr.Sum, "AVG": expr.Avg,
		"MIN": expr.Min, "MAX": expr.Max,
	}
	kind, ok := kinds[call.Func]
	if !ok {
		return plan.Agg{}, fmt.Errorf("sql: unknown aggregate %q", call.Func)
	}
	if call.Star {
		if kind != expr.Count {
			return plan.Agg{}, fmt.Errorf("sql: %s(*) is not valid", call.Func)
		}
		return plan.Agg{Kind: expr.Count}, nil
	}
	arg, err := planArith(call.Arg, res)
	if err != nil {
		return plan.Agg{}, err
	}
	return plan.Agg{Kind: kind, Arg: arg}, nil
}

func planArith(a Arith, res *colResolver) (expr.Scalar, error) {
	switch n := a.(type) {
	case ColExpr:
		c, err := res.resolve(n.Name)
		if err != nil {
			return nil, err
		}
		ref := expr.ColRef{Col: c}
		if err := expr.ValidateScalar(ref, res.sch); err != nil {
			return nil, err
		}
		return ref, nil
	case NumExpr:
		return expr.Const{V: n.Value}, nil
	case BinExpr:
		l, err := planArith(n.L, res)
		if err != nil {
			return nil, err
		}
		r, err := planArith(n.R, res)
		if err != nil {
			return nil, err
		}
		ops := map[string]expr.BinOp{"+": expr.Add, "-": expr.Sub, "*": expr.Mul}
		op, ok := ops[n.Op]
		if !ok {
			return nil, fmt.Errorf("sql: unknown operator %q", n.Op)
		}
		return expr.Binary{Op: op, L: l, R: r}, nil
	default:
		return nil, fmt.Errorf("sql: unknown arithmetic node %T", a)
	}
}

func planComparison(cmp Comparison, res *colResolver) (expr.Predicate, error) {
	c, err := res.resolve(cmp.Column)
	if err != nil {
		return expr.Predicate{}, err
	}
	ops := map[string]expr.CmpOp{
		"<": expr.Lt, "<=": expr.Le, "=": expr.Eq,
		"<>": expr.Ne, ">=": expr.Ge, ">": expr.Gt,
	}
	op, ok := ops[cmp.Op]
	if !ok {
		return expr.Predicate{}, fmt.Errorf("sql: unknown comparison %q", cmp.Op)
	}
	col := res.sch.Column(c)
	var p expr.Predicate
	if cmp.Lit.Kind == LitNumber && col.Type != geometry.Float64 && col.Type != geometry.Char {
		p, err = intPredicate(c, op, cmp.Lit.Text, col.Type)
	} else {
		p.Col, p.Op = c, op
		p.Operand, err = planLiteral(cmp.Lit, col)
	}
	if err != nil {
		return expr.Predicate{}, fmt.Errorf("sql: column %q: %w", cmp.Column, err)
	}
	return p, nil
}

// intPredicate lowers `column op x`, x a numeric literal, on a BIGINT, INT
// or DATE column to the predicate that holds for exactly the column values
// the comparison holds for: a fractional x moves to the integer on the
// side the operator keeps (k < 2.5 is k < 3, k = 2.5 holds for no value),
// and an x past the column's range leaves a predicate that every value
// passes (k >= min) or none does (k < min).
func intPredicate(c int, op expr.CmpOp, text string, typ geometry.ColumnType) (expr.Predicate, error) {
	x, ok := new(big.Rat).SetString(text)
	if !ok {
		return expr.Predicate{}, fmt.Errorf("bad number %q", text)
	}
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	if typ != geometry.Int64 {
		lo, hi = math.MinInt32, math.MaxInt32
	}
	// k op x is k op floor(x) for <= and >, k op ceil(x) for < and >=.
	k := new(big.Int).Div(x.Num(), x.Denom()) // Euclidean, so the floor: the denominator is positive
	if !x.IsInt() && (op == expr.Lt || op == expr.Ge) {
		k.Add(k, big.NewInt(1))
	}
	below, above := k.Cmp(big.NewInt(lo)) < 0, k.Cmp(big.NewInt(hi)) > 0
	var all bool
	switch {
	case (op == expr.Eq || op == expr.Ne) && (!x.IsInt() || below || above): // x is no column value
		all = op == expr.Ne
	case below || above:
		all = above == (op == expr.Lt || op == expr.Le)
	default:
		return expr.Predicate{Col: c, Op: op, Operand: table.Value{Type: typ, Int: k.Int64()}}, nil
	}
	p := expr.Predicate{Col: c, Op: expr.Lt, Operand: table.Value{Type: typ, Int: lo}}
	if all {
		p.Op = expr.Ge
	}
	return p, nil
}

// planLiteral coerces a literal to the column's type; intPredicate lowers a
// number compared with an integer column.
func planLiteral(lit Literal, col geometry.Column) (table.Value, error) {
	switch {
	case col.Type == geometry.Float64 && lit.Kind == LitNumber:
		return table.F64(lit.Num), nil
	case col.Type == geometry.Char && lit.Kind == LitString:
		return table.Str(lit.Str), nil
	case col.Type == geometry.Date && lit.Kind == LitString:
		day, err := ParseDate(lit.Str)
		return table.DateV(day), err
	case lit.Kind == LitString:
		return table.Value{}, fmt.Errorf("expected number for %s, got %q", col.Type, lit.Str)
	}
	return table.Value{}, fmt.Errorf("expected string for %s, got %s", col.Type, lit.Text)
}

// ParseDate converts 'YYYY-MM-DD' into days since 1970-01-01.
func ParseDate(s string) (int32, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return 0, fmt.Errorf("sql: bad date %q: %w", s, err)
	}
	return int32(t.Unix() / 86400), nil
}

// FormatDate renders a day number as 'YYYY-MM-DD'.
func FormatDate(day int32) string {
	return time.Unix(int64(day)*86400, 0).UTC().Format("2006-01-02")
}

// Compile parses a single-table statement and lowers it against its
// table's schema.
func Compile(query string, schema *geometry.Schema) (*plan.Node, error) {
	st, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return Lower(st, schema)
}
