package tpch

import (
	"testing"

	"rfabric/internal/colstore"
	"rfabric/internal/engine"
	"rfabric/internal/geometry"
	"rfabric/internal/sql"
	"rfabric/internal/table"
)

// compile lowers one of the package's query texts against lineitem.
func compile(t *testing.T, text string) engine.Query {
	t.Helper()
	q, err := sql.Compile(text, LineitemSchema())
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestSchemaShape(t *testing.T) {
	sch := LineitemSchema()
	if sch.NumColumns() != lineitemColumns {
		t.Fatalf("columns = %d, want %d", sch.NumColumns(), lineitemColumns)
	}
	if sch.RowBytes() != 136 {
		t.Errorf("row bytes = %d, want 136", sch.RowBytes())
	}
	for name, idx := range map[string]int{
		"l_orderkey": LOrderKey, "l_quantity": LQuantity,
		"l_extendedprice": LExtendedPrice, "l_discount": LDiscount,
		"l_returnflag": LReturnFlag, "l_shipdate": LShipDate,
	} {
		got, ok := sch.Lookup(name)
		if !ok || got != idx {
			t.Errorf("Lookup(%q) = %d,%v want %d", name, got, ok, idx)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := NewLineitem(200, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLineitem(200, 7)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 200; r++ {
		if string(a.RowPayload(r)) != string(b.RowPayload(r)) {
			t.Fatalf("row %d differs between same-seed generations", r)
		}
	}
	c, err := NewLineitem(200, 8)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for r := 0; r < 200; r++ {
		if string(a.RowPayload(r)) == string(c.RowPayload(r)) {
			same++
		}
	}
	if same == 200 {
		t.Error("different seeds produced identical data")
	}
}

func TestGeneratedDistributions(t *testing.T) {
	tbl, err := NewLineitem(20_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	groups := map[string]int{}
	var discountOK, qtyOK int
	for r := 0; r < tbl.NumRows(); r++ {
		rf := tbl.MustGet(r, LReturnFlag).String()
		ls := tbl.MustGet(r, LLineStatus).String()
		groups[rf+"/"+ls]++
		d := tbl.MustGet(r, LDiscount).Float
		if d >= 0 && d <= 0.10 {
			discountOK++
		}
		q := tbl.MustGet(r, LQuantity).Float
		if q >= 1 && q <= 50 {
			qtyOK++
		}
		ship := tbl.MustGet(r, LShipDate).Int
		if ship < shipDateLo || ship > shipDateHi {
			t.Fatalf("row %d shipdate %d out of range", r, ship)
		}
		receipt := tbl.MustGet(r, LReceiptDate).Int
		if receipt <= ship {
			t.Fatalf("row %d receipt %d not after ship %d", r, receipt, ship)
		}
	}
	if discountOK != tbl.NumRows() || qtyOK != tbl.NumRows() {
		t.Errorf("discount/quantity out of TPC-H ranges")
	}
	// Exactly the four TPC-H groups, with N/F the smallest.
	for _, g := range []string{"A/F", "R/F", "N/O", "N/F"} {
		if groups[g] == 0 {
			t.Errorf("group %s missing (groups: %v)", g, groups)
		}
	}
	if len(groups) != 4 {
		t.Errorf("got %d groups %v, want the 4 TPC-H groups", len(groups), groups)
	}
	if groups["N/F"] >= groups["A/F"] {
		t.Errorf("N/F (%d) should be the small sliver (A/F=%d)", groups["N/F"], groups["A/F"])
	}
}

func TestQ6Selectivity(t *testing.T) {
	sys := engine.MustSystem(engine.DefaultSystemConfig())
	rows := 30_000
	sch := LineitemSchema()
	tbl := table.MustNew("lineitem", sch,
		table.WithCapacity(rows), table.WithBaseAddr(sys.Arena.Alloc(int64(rows*sch.RowBytes()))))
	if err := Generate(tbl, rows, 1); err != nil {
		t.Fatal(err)
	}
	res, err := (&engine.RowEngine{Tbl: tbl, Sys: sys}).Execute(compile(t, Q6SQL))
	if err != nil {
		t.Fatal(err)
	}
	sel := float64(res.RowsPassed) / float64(rows)
	// TPC-H Q6 hits ~1.9 % of lineitem.
	if sel < 0.008 || sel > 0.045 {
		t.Errorf("Q6 selectivity %.4f outside the expected band around 0.019", sel)
	}
	if res.Aggs[0].Float <= 0 {
		t.Errorf("Q6 revenue = %s", res.Aggs[0])
	}
}

func TestQ1AllEnginesAgree(t *testing.T) {
	sys := engine.MustSystem(engine.DefaultSystemConfig())
	rows := 10_000
	sch := LineitemSchema()
	tbl := table.MustNew("lineitem", sch,
		table.WithCapacity(rows), table.WithBaseAddr(sys.Arena.Alloc(int64(rows*sch.RowBytes()))))
	if err := Generate(tbl, rows, 1); err != nil {
		t.Fatal(err)
	}
	store, err := colstore.FromTable(tbl, sys.Arena)
	if err != nil {
		t.Fatal(err)
	}
	q := compile(t, Q1SQL)
	ref, err := (&engine.RowEngine{Tbl: tbl, Sys: sys}).Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Groups) != 4 {
		t.Fatalf("Q1 produced %d groups, want 4", len(ref.Groups))
	}
	// The shipdate cutoff excludes some rows.
	if ref.RowsPassed == ref.RowsScanned {
		t.Error("Q1 predicate filtered nothing")
	}
	for _, e := range []engine.Executor{
		&engine.ColEngine{Store: store, Sys: sys},
		&engine.RMEngine{Tbl: tbl, Sys: sys},
		&engine.RMEngine{Tbl: tbl, Sys: sys, PushSelection: true},
	} {
		sys.ResetState()
		got, err := e.Execute(q)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if err := got.EquivalentTo(ref, 1e-9); err != nil {
			t.Errorf("%s disagrees on Q1: %v", e.Name(), err)
		}
	}
}

func TestGenerateRejectsForeignSchema(t *testing.T) {
	other := geometry.MustSchema(geometry.Column{Name: "x", Type: geometry.Int64, Width: 8})
	tbl := table.MustNew("t", other)
	if err := Generate(tbl, 1, 1); err == nil {
		t.Error("foreign schema accepted")
	}
}

func TestMustSystemHelper(t *testing.T) {
	// engine.MustSystem with a broken config must panic (exercise the
	// fixture helper used above).
	defer func() {
		if recover() == nil {
			t.Error("MustSystem did not panic on invalid config")
		}
	}()
	bad := engine.DefaultSystemConfig()
	bad.DRAM.Banks = 3
	engine.MustSystem(bad)
}
