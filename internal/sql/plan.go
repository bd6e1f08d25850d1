package sql

import (
	"errors"
	"fmt"
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
	operand, err := planLiteral(cmp.Lit, res.sch.Column(c))
	if err != nil {
		return expr.Predicate{}, fmt.Errorf("sql: column %q: %w", cmp.Column, err)
	}
	return expr.Predicate{Col: c, Op: op, Operand: operand}, nil
}

// planLiteral coerces a literal to the column's type.
func planLiteral(lit Literal, col geometry.Column) (table.Value, error) {
	switch col.Type {
	case geometry.Int64:
		if lit.Kind != LitNumber {
			return table.Value{}, fmt.Errorf("expected number for BIGINT, got %q", lit.Str)
		}
		return table.I64(int64(lit.Num)), nil
	case geometry.Int32:
		if lit.Kind != LitNumber {
			return table.Value{}, fmt.Errorf("expected number for INT, got %q", lit.Str)
		}
		return table.I32(int32(lit.Num)), nil
	case geometry.Float64:
		if lit.Kind != LitNumber {
			return table.Value{}, fmt.Errorf("expected number for DOUBLE, got %q", lit.Str)
		}
		return table.F64(lit.Num), nil
	case geometry.Char:
		if lit.Kind != LitString {
			return table.Value{}, fmt.Errorf("expected string for CHAR, got %g", lit.Num)
		}
		return table.Str(lit.Str), nil
	case geometry.Date:
		switch lit.Kind {
		case LitNumber:
			return table.DateV(int32(lit.Num)), nil
		case LitString:
			day, err := ParseDate(lit.Str)
			if err != nil {
				return table.Value{}, err
			}
			return table.DateV(day), nil
		}
	}
	return table.Value{}, fmt.Errorf("unsupported column type %s", col.Type)
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
