package expr

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"rfabric/internal/geometry"
	"rfabric/internal/table"
)

func testSchema(t *testing.T) *geometry.Schema {
	t.Helper()
	return geometry.MustSchema(
		geometry.Column{Name: "a", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "b", Type: geometry.Float64, Width: 8},
		geometry.Column{Name: "c", Type: geometry.Char, Width: 4},
	)
}

func TestCmpOpSemantics(t *testing.T) {
	v := table.I64(5)
	cases := []struct {
		op      CmpOp
		operand int64
		want    bool
	}{
		{Lt, 6, true}, {Lt, 5, false},
		{Le, 5, true}, {Le, 4, false},
		{Eq, 5, true}, {Eq, 4, false},
		{Ne, 4, true}, {Ne, 5, false},
		{Ge, 5, true}, {Ge, 6, false},
		{Gt, 4, true}, {Gt, 5, false},
	}
	for _, c := range cases {
		p := Predicate{Col: 0, Op: c.op, Operand: table.I64(c.operand)}
		if got := p.Eval(v); got != c.want {
			t.Errorf("5 %s %d = %v, want %v", c.op, c.operand, got, c.want)
		}
	}
}

func TestCmpOpStrings(t *testing.T) {
	want := map[CmpOp]string{Lt: "<", Le: "<=", Eq: "=", Ne: "<>", Ge: ">=", Gt: ">"}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("%d.String() = %q, want %q", uint8(op), op.String(), s)
		}
	}
}

func TestPredicateValidate(t *testing.T) {
	s := testSchema(t)
	good := Predicate{Col: 0, Op: Lt, Operand: table.I64(1)}
	if err := good.Validate(s); err != nil {
		t.Errorf("valid predicate rejected: %v", err)
	}
	if err := (Predicate{Col: 9, Op: Lt, Operand: table.I64(1)}).Validate(s); err == nil {
		t.Error("out-of-range column accepted")
	}
	if err := (Predicate{Col: 0, Op: Lt, Operand: table.F64(1)}).Validate(s); err == nil {
		t.Error("type mismatch accepted")
	}
}

func TestConjunction(t *testing.T) {
	s := testSchema(t)
	c := Conjunction{
		{Col: 0, Op: Lt, Operand: table.I64(10)},
		{Col: 1, Op: Gt, Operand: table.F64(0)},
		{Col: 0, Op: Gt, Operand: table.I64(0)},
	}
	if err := c.Validate(s); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	cols := c.Columns()
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 1 {
		t.Errorf("Columns = %v, want [0 1]", cols)
	}
	if got := c.Format(s); !strings.Contains(got, "AND") {
		t.Errorf("Format = %q", got)
	}
	if got := (Conjunction{}).Format(s); got != "true" {
		t.Errorf("empty conjunction formats as %q", got)
	}
}

func TestAggSpecValidation(t *testing.T) {
	s := testSchema(t)
	if err := (AggSpec{Kind: Sum, Col: 2}).Validate(s); err == nil {
		t.Error("SUM over CHAR accepted")
	}
	if err := (AggSpec{Kind: Min, Col: 2}).Validate(s); err == nil {
		t.Error("MIN over CHAR accepted")
	}
	if err := (AggSpec{Kind: Sum, Col: 99}).Validate(s); err == nil {
		t.Error("out-of-range column accepted")
	}
	if err := (AggSpec{Kind: Count, Col: -5}).Validate(s); err != nil {
		t.Errorf("COUNT ignores Col but was rejected: %v", err)
	}
}

func TestScalarEval(t *testing.T) {
	s := testSchema(t)
	// (a + 2) * b - 1
	e := Binary{
		Op: Sub,
		L: Binary{
			Op: Mul,
			L:  Binary{Op: Add, L: ColRef{Col: 0}, R: Const{V: 2}},
			R:  ColRef{Col: 1},
		},
		R: Const{V: 1},
	}
	if err := ValidateScalar(e, s); err != nil {
		t.Fatalf("ValidateScalar: %v", err)
	}
	get := func(col int) table.Value {
		if col == 0 {
			return table.I64(3)
		}
		return table.F64(4)
	}
	if got := e.EvalF(get); got != (3+2)*4-1 {
		t.Errorf("EvalF = %v, want 19", got)
	}
	if got := e.Ops(); got != 3 {
		t.Errorf("Ops = %d, want 3", got)
	}
	cols := e.Columns()
	if len(cols) != 2 {
		t.Errorf("Columns = %v", cols)
	}
	if got := e.Format(s); got != "(((a + 2) * b) - 1)" {
		t.Errorf("Format = %q", got)
	}
}

func TestValidateScalarRejectsChar(t *testing.T) {
	s := testSchema(t)
	if err := ValidateScalar(ColRef{Col: 2}, s); err == nil {
		t.Error("scalar over CHAR accepted")
	}
	if err := ValidateScalar(ColRef{Col: 42}, s); err == nil {
		t.Error("out-of-range scalar column accepted")
	}
}

// TestPredicatePartitionProperty: for any value and constant, exactly one
// of <, =, > holds, and Le/Ge/Ne are consistent with them.
func TestPredicatePartitionProperty(t *testing.T) {
	check := func(v, c int64) bool {
		val := table.I64(v)
		mk := func(op CmpOp) bool {
			return Predicate{Col: 0, Op: op, Operand: table.I64(c)}.Eval(val)
		}
		lt, eq, gt := mk(Lt), mk(Eq), mk(Gt)
		count := 0
		for _, b := range []bool{lt, eq, gt} {
			if b {
				count++
			}
		}
		return count == 1 &&
			mk(Le) == (lt || eq) &&
			mk(Ge) == (gt || eq) &&
			mk(Ne) == !eq
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// TestKeyRange pins the key range a conjunction admits on one column,
// exact at the int64 edges, where one past either end is empty.
func TestKeyRange(t *testing.T) {
	p := func(col int, op CmpOp, v int64) Predicate { return Predicate{Col: col, Op: op, Operand: table.I64(v)} }
	for _, c := range []struct {
		sel    Conjunction
		lo, hi int64
		ok     bool
	}{
		{nil, math.MinInt64, math.MaxInt64, false},
		{Conjunction{p(0, Ne, 3), p(1, Eq, 3)}, math.MinInt64, math.MaxInt64, false},
		{Conjunction{p(0, Eq, 7)}, 7, 7, true},
		{Conjunction{p(0, Gt, 3), p(0, Le, 9)}, 4, 9, true},
		{Conjunction{p(0, Ge, 3), p(0, Lt, 9), p(0, Gt, 1)}, 3, 8, true},
		{Conjunction{p(0, Gt, math.MaxInt64)}, math.MaxInt64, math.MinInt64, true},
		{Conjunction{p(0, Lt, math.MinInt64)}, math.MaxInt64, math.MinInt64, true},
		{Conjunction{p(0, Ge, math.MaxInt64)}, math.MaxInt64, math.MaxInt64, true},
		{Conjunction{p(0, Le, math.MinInt64)}, math.MinInt64, math.MinInt64, true},
		{Conjunction{p(0, Gt, math.MaxInt64-1)}, math.MaxInt64, math.MaxInt64, true},
		{Conjunction{p(0, Lt, math.MinInt64+1)}, math.MinInt64, math.MinInt64, true},
	} {
		lo, hi, ok := c.sel.KeyRange(0)
		if lo != c.lo || hi != c.hi || ok != c.ok {
			t.Errorf("%v: got [%d, %d] %v, want [%d, %d] %v", c.sel, lo, hi, ok, c.lo, c.hi, c.ok)
		}
	}
}
