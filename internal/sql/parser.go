package sql

import (
	"fmt"
	"strconv"
	"strings"
)

// AST node types. The dialect is small enough that the tree is concrete.

// Stmt is a parsed SELECT statement.
type Stmt struct {
	Items    []SelectItem
	Table    string
	Snapshot *uint64 // AS OF timestamp; nil reads the latest versions
	Joins    []JoinClause
	Where    []Comparison
	GroupBy  []string
	OrderBy  []OrderItem
	Limit    int64
	HasLimit bool
}

// JoinClause is one `JOIN table ON left = right` clause. The sides are
// column references as written — possibly qualified — and which one names
// the joined table is resolved during lowering.
type JoinClause struct {
	Table    string
	LeftCol  string
	RightCol string
}

// OrderItem is one ORDER BY key: a column name or a 1-based select-list
// ordinal, optionally descending.
type OrderItem struct {
	Column  string // set for named keys
	Ordinal int    // 1-based select-list position, when > 0
	Desc    bool
}

// SelectItem is either a plain column reference or an aggregate call.
type SelectItem struct {
	Column string   // set for plain references
	Agg    *AggCall // set for aggregates
}

// AggCall is COUNT(*) or FUNC(arithmetic expression).
type AggCall struct {
	Func string // COUNT, SUM, AVG, MIN, MAX
	Star bool   // COUNT(*)
	Arg  Arith  // nil when Star
}

// Arith is an arithmetic expression node.
type Arith interface{ arithNode() }

// ColExpr references a column.
type ColExpr struct{ Name string }

// NumExpr is a numeric literal.
type NumExpr struct{ Value float64 }

// BinExpr combines two expressions with + - or *.
type BinExpr struct {
	Op   string
	L, R Arith
}

func (ColExpr) arithNode() {}
func (NumExpr) arithNode() {}
func (BinExpr) arithNode() {}

// Comparison is one WHERE conjunct: column op literal.
type Comparison struct {
	Column string
	Op     string // < <= = <> >= >
	Lit    Literal
}

// Literal is a typed constant. A number keeps its text, signed, next to
// its float value: a comparison on an integer column lowers from the text,
// exactly.
type Literal struct {
	Kind   LitKind
	Num    float64
	Text   string
	Str    string
	IsDate bool
}

// LitKind discriminates literal forms.
type LitKind uint8

// Literal kinds.
const (
	LitNumber LitKind = iota
	LitString
)

type parser struct {
	toks []token
	pos  int
	src  string
}

// Parse parses one SELECT statement.
func Parse(input string) (*Stmt, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: input}
	st, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if p.cur().kind != tokEOF {
		return nil, p.errf("trailing input starting at %q", p.cur().text)
	}
	return st, nil
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sql: %s (near offset %d)", fmt.Sprintf(format, args...), p.cur().pos)
}

func (p *parser) expectKeyword(kw string) error {
	if t := p.cur(); t.kind == tokKeyword && t.text == kw {
		p.pos++
		return nil
	}
	return p.errf("expected %s, got %q", kw, p.cur().text)
}

func (p *parser) acceptSymbol(sym string) bool {
	if t := p.cur(); t.kind == tokSymbol && t.text == sym {
		p.pos++
		return true
	}
	return false
}

func (p *parser) parseSelect() (*Stmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	st := &Stmt{}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		st.Items = append(st.Items, item)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	if t := p.cur(); t.kind == tokIdent {
		st.Table = t.text
		p.pos++
	} else {
		return nil, p.errf("expected table name, got %q", p.cur().text)
	}
	if t := p.cur(); t.kind == tokKeyword && t.text == "AS" {
		p.pos++
		if err := p.expectKeyword("OF"); err != nil {
			return nil, err
		}
		ts := p.cur()
		n, err := strconv.ParseUint(ts.text, 10, 64)
		if ts.kind != tokNumber || err != nil {
			return nil, p.errf("expected snapshot timestamp after AS OF, got %q", ts.text)
		}
		p.pos++
		st.Snapshot = &n
	}
	for {
		t := p.cur()
		if t.kind != tokKeyword || t.text != "JOIN" {
			break
		}
		p.pos++
		var jc JoinClause
		if t := p.cur(); t.kind == tokIdent {
			jc.Table = t.text
			p.pos++
		} else {
			return nil, p.errf("expected table name after JOIN, got %q", p.cur().text)
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		left, err := p.parseColumnRef("ON")
		if err != nil {
			return nil, err
		}
		if op := p.cur(); op.kind != tokSymbol || op.text != "=" {
			return nil, p.errf("JOIN ... ON supports only equality, got %q", op.text)
		}
		p.pos++
		right, err := p.parseColumnRef("ON")
		if err != nil {
			return nil, err
		}
		jc.LeftCol, jc.RightCol = left, right
		st.Joins = append(st.Joins, jc)
	}
	if t := p.cur(); t.kind == tokKeyword && t.text == "WHERE" {
		p.pos++
		for {
			cmp, err := p.parseComparison()
			if err != nil {
				return nil, err
			}
			st.Where = append(st.Where, cmp...)
			if t := p.cur(); t.kind == tokKeyword && t.text == "AND" {
				p.pos++
				continue
			}
			break
		}
	}
	if t := p.cur(); t.kind == tokKeyword && t.text == "GROUP" {
		p.pos++
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			col, err := p.parseColumnRef("GROUP BY")
			if err != nil {
				return nil, err
			}
			st.GroupBy = append(st.GroupBy, col)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if t := p.cur(); t.kind == tokKeyword && t.text == "ORDER" {
		p.pos++
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			var it OrderItem
			switch t := p.cur(); {
			case t.kind == tokIdent:
				col, err := p.parseColumnRef("ORDER BY")
				if err != nil {
					return nil, err
				}
				it.Column = col
			case t.kind == tokNumber:
				n, err := strconv.Atoi(t.text)
				if err != nil || n <= 0 {
					return nil, p.errf("bad ORDER BY ordinal %q", t.text)
				}
				it.Ordinal = n
				p.pos++
			default:
				return nil, p.errf("expected column or ordinal in ORDER BY, got %q", t.text)
			}
			if t := p.cur(); t.kind == tokKeyword && (t.text == "ASC" || t.text == "DESC") {
				it.Desc = t.text == "DESC"
				p.pos++
			}
			st.OrderBy = append(st.OrderBy, it)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if t := p.cur(); t.kind == tokKeyword && t.text == "LIMIT" {
		p.pos++
		lt := p.cur()
		if lt.kind != tokNumber {
			return nil, p.errf("expected row count after LIMIT, got %q", lt.text)
		}
		n, err := strconv.ParseInt(lt.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad LIMIT %q", lt.text)
		}
		p.pos++
		st.Limit = n
		st.HasLimit = true
	}
	return st, nil
}

var aggFuncs = map[string]bool{"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if t := p.cur(); t.kind == tokKeyword && aggFuncs[t.text] {
		p.pos++
		call := &AggCall{Func: t.text}
		if !p.acceptSymbol("(") {
			return SelectItem{}, p.errf("expected ( after %s", t.text)
		}
		if t.text == "COUNT" && p.acceptSymbol("*") {
			call.Star = true
		} else {
			arg, err := p.parseArith()
			if err != nil {
				return SelectItem{}, err
			}
			call.Arg = arg
		}
		if !p.acceptSymbol(")") {
			return SelectItem{}, p.errf("expected ) to close %s", t.text)
		}
		return SelectItem{Agg: call}, nil
	}
	if t := p.cur(); t.kind == tokIdent {
		col, err := p.parseColumnRef("select list")
		if err != nil {
			return SelectItem{}, err
		}
		return SelectItem{Column: col}, nil
	}
	return SelectItem{}, p.errf("expected column or aggregate, got %q", p.cur().text)
}

// parseColumnRef parses a possibly qualified column reference: `col` or
// `table.col`. ctx names the clause for error messages.
func (p *parser) parseColumnRef(ctx string) (string, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return "", p.errf("expected column in %s, got %q", ctx, t.text)
	}
	name := t.text
	p.pos++
	if p.acceptSymbol(".") {
		q := p.cur()
		if q.kind != tokIdent {
			return "", p.errf("expected column name after %q., got %q", name, q.text)
		}
		name += "." + q.text
		p.pos++
	}
	return name, nil
}

// parseArith parses + and - at the lowest precedence.
func (p *parser) parseArith() (Arith, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind == tokSymbol && (t.text == "+" || t.text == "-") {
			p.pos++
			right, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			left = BinExpr{Op: t.text, L: left, R: right}
			continue
		}
		return left, nil
	}
}

func (p *parser) parseTerm() (Arith, error) {
	left, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokSymbol && p.cur().text == "*" {
		p.pos++
		right, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		left = BinExpr{Op: "*", L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseFactor() (Arith, error) {
	switch t := p.cur(); {
	case t.kind == tokNumber:
		p.pos++
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return NumExpr{Value: v}, nil
	case t.kind == tokIdent:
		name, err := p.parseColumnRef("expression")
		if err != nil {
			return nil, err
		}
		return ColExpr{Name: name}, nil
	case t.kind == tokSymbol && t.text == "(":
		p.pos++
		inner, err := p.parseArith()
		if err != nil {
			return nil, err
		}
		if !p.acceptSymbol(")") {
			return nil, p.errf("expected )")
		}
		return inner, nil
	default:
		return nil, p.errf("expected number, column, or (, got %q", t.text)
	}
}

// parseComparison parses `col op literal` or `col BETWEEN lit AND lit`
// (which desugars to two conjuncts).
func (p *parser) parseComparison() ([]Comparison, error) {
	col, err := p.parseColumnRef("WHERE")
	if err != nil {
		return nil, err
	}
	if bt := p.cur(); bt.kind == tokKeyword && bt.text == "BETWEEN" {
		p.pos++
		lo, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		return []Comparison{{Column: col, Op: ">=", Lit: lo}, {Column: col, Op: "<=", Lit: hi}}, nil
	}
	op := p.cur()
	if op.kind != tokSymbol || !strings.Contains("< <= = <> >= >", op.text) {
		return nil, p.errf("expected comparison operator, got %q", op.text)
	}
	p.pos++
	lit, err := p.parseLiteral()
	if err != nil {
		return nil, err
	}
	return []Comparison{{Column: col, Op: op.text, Lit: lit}}, nil
}

func (p *parser) parseLiteral() (Literal, error) {
	switch t := p.cur(); {
	case t.kind == tokNumber:
		p.pos++
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return Literal{}, p.errf("bad number %q", t.text)
		}
		return Literal{Kind: LitNumber, Num: v, Text: t.text}, nil
	case t.kind == tokSymbol && t.text == "-":
		p.pos++
		lit, err := p.parseLiteral()
		if err != nil {
			return Literal{}, err
		}
		if lit.Kind != LitNumber {
			return Literal{}, p.errf("cannot negate a non-numeric literal")
		}
		lit.Num = -lit.Num
		if neg, ok := strings.CutPrefix(lit.Text, "-"); ok {
			lit.Text = neg
		} else {
			lit.Text = "-" + lit.Text
		}
		return lit, nil
	case t.kind == tokString:
		p.pos++
		return Literal{Kind: LitString, Str: t.text}, nil
	case t.kind == tokKeyword && t.text == "DATE":
		p.pos++
		if s := p.cur(); s.kind == tokString {
			p.pos++
			return Literal{Kind: LitString, Str: s.text, IsDate: true}, nil
		}
		return Literal{}, p.errf("expected 'YYYY-MM-DD' after DATE")
	default:
		return Literal{}, p.errf("expected literal, got %q", t.text)
	}
}
