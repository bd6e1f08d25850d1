// Package tpch provides the workload behind the paper's practical-query
// experiments (ICDE 2023, §V, Figure 7): a deterministic TPC-H-style
// lineitem generator and the Q1 and Q6 query texts. The generator
// reproduces the value distributions that drive the figures — Q6's ≈1.9 %
// selectivity and Q1's ≈98 % pass rate over four main (returnflag,
// linestatus) groups — without requiring the official dbgen tool or its
// data files.
package tpch

import (
	"fmt"
	"math/rand"

	"rfabric/internal/geometry"
	"rfabric/internal/table"
)

// Lineitem column indices, in schema order.
const (
	LOrderKey = iota
	LPartKey
	LSuppKey
	LLineNumber
	LQuantity
	LExtendedPrice
	LDiscount
	LTax
	LReturnFlag
	LLineStatus
	LShipDate
	LCommitDate
	LReceiptDate
	LShipInstruct
	LShipMode
	LComment
	lineitemColumns
)

// Day numbers (days since 1970-01-01) bounding the generated ship dates:
// 1992-01-02 through 1998-12-01, the l_shipdate range of the TPC-H
// population rules. Q1's cutoff (1998-09-02) therefore excludes the final
// ~90 days of shipments, passing ≈96-98 % of rows.
const (
	shipDateLo = 8036  // 1992-01-02
	shipDateHi = 10561 // 1998-12-01
)

// Date1994 (1994-01-01) opens Q6's ship-date year.
const Date1994 = 8766

// LineitemSchema returns the fixed-width lineitem layout (136-byte rows).
func LineitemSchema() *geometry.Schema {
	return geometry.MustSchema(
		geometry.Column{Name: "l_orderkey", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "l_partkey", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "l_suppkey", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "l_linenumber", Type: geometry.Int32, Width: 4},
		geometry.Column{Name: "l_quantity", Type: geometry.Float64, Width: 8},
		geometry.Column{Name: "l_extendedprice", Type: geometry.Float64, Width: 8},
		geometry.Column{Name: "l_discount", Type: geometry.Float64, Width: 8},
		geometry.Column{Name: "l_tax", Type: geometry.Float64, Width: 8},
		geometry.Column{Name: "l_returnflag", Type: geometry.Char, Width: 1},
		geometry.Column{Name: "l_linestatus", Type: geometry.Char, Width: 1},
		geometry.Column{Name: "l_shipdate", Type: geometry.Date, Width: 4},
		geometry.Column{Name: "l_commitdate", Type: geometry.Date, Width: 4},
		geometry.Column{Name: "l_receiptdate", Type: geometry.Date, Width: 4},
		geometry.Column{Name: "l_shipinstruct", Type: geometry.Char, Width: 25},
		geometry.Column{Name: "l_shipmode", Type: geometry.Char, Width: 10},
		geometry.Column{Name: "l_comment", Type: geometry.Char, Width: 27},
	)
}

var (
	shipInstructs = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	shipModes     = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	commentWords  = []string{"carefully", "quickly", "furiously", "slyly", "blithely", "deposits", "requests", "packages", "accounts", "theodolites"}
)

// Generate populates tbl with n deterministic lineitem rows from seed.
// The table must use LineitemSchema (structurally: same column layout).
func Generate(tbl *table.Table, n int, seed int64) error {
	sch := tbl.Schema()
	if sch.NumColumns() != lineitemColumns {
		return fmt.Errorf("tpch: table has %d columns, want %d", sch.NumColumns(), lineitemColumns)
	}
	rng := rand.New(rand.NewSource(seed))
	vals := make([]table.Value, lineitemColumns)
	for i := 0; i < n; i++ {
		orderKey := int64(i/4 + 1)
		lineNum := int32(i%4 + 1)
		quantity := float64(rng.Intn(50) + 1)
		partKey := int64(rng.Intn(200000) + 1)
		partPrice := 900.0 + float64(partKey%2000)*10 // 900..20890
		extended := quantity * partPrice
		discount := float64(rng.Intn(11)) / 100.0 // 0.00..0.10
		tax := float64(rng.Intn(9)) / 100.0       // 0.00..0.08
		ship := int32(shipDateLo + rng.Intn(shipDateHi-shipDateLo+1))
		commit := ship + int32(rng.Intn(60)) - 30
		receipt := ship + int32(rng.Intn(30)) + 1

		// Return flag and line status follow the TPC-H population rule with
		// its 1995-06-17 currentdate (day 9298): R or A when the receipt
		// date is past, N otherwise; F when the ship date is past, O
		// otherwise. Because receipt follows ship by at most 30 days this
		// yields exactly the four groups Q1 reports — A/F, R/F, N/O, and
		// the small N/F sliver.
		const currentDate = 9298
		var rf, ls string
		if receipt <= currentDate {
			if rng.Intn(2) == 0 {
				rf = "R"
			} else {
				rf = "A"
			}
		} else {
			rf = "N"
		}
		if ship <= currentDate {
			ls = "F"
		} else {
			ls = "O"
		}

		vals[LOrderKey] = table.I64(orderKey)
		vals[LPartKey] = table.I64(partKey)
		vals[LSuppKey] = table.I64(partKey%10000 + 1)
		vals[LLineNumber] = table.I32(lineNum)
		vals[LQuantity] = table.F64(quantity)
		vals[LExtendedPrice] = table.F64(extended)
		vals[LDiscount] = table.F64(discount)
		vals[LTax] = table.F64(tax)
		vals[LReturnFlag] = table.Str(rf)
		vals[LLineStatus] = table.Str(ls)
		vals[LShipDate] = table.DateV(ship)
		vals[LCommitDate] = table.DateV(commit)
		vals[LReceiptDate] = table.DateV(receipt)
		vals[LShipInstruct] = table.Str(shipInstructs[rng.Intn(len(shipInstructs))])
		vals[LShipMode] = table.Str(shipModes[rng.Intn(len(shipModes))])
		vals[LComment] = table.Str(commentWords[rng.Intn(len(commentWords))] + " " + commentWords[rng.Intn(len(commentWords))])

		if _, err := tbl.Append(1, vals...); err != nil {
			return err
		}
	}
	return nil
}

// NewLineitem creates and populates a lineitem table of n rows.
func NewLineitem(n int, seed int64, opts ...table.Option) (*table.Table, error) {
	opts = append(opts, table.WithCapacity(n))
	tbl, err := table.New("lineitem", LineitemSchema(), opts...)
	if err != nil {
		return nil, err
	}
	if err := Generate(tbl, n, seed); err != nil {
		return nil, err
	}
	return tbl, nil
}

// Q1SQL is TPC-H query 1, the pricing summary report. The ship-date
// cutoff is 1998-12-01 minus 90 days. Its per-row arithmetic makes it
// CPU-bound — the layout-insensitive case of Figure 7a.
const Q1SQL = `SELECT l_returnflag, l_linestatus,
       SUM(l_quantity), SUM(l_extendedprice),
       SUM(l_extendedprice * (1 - l_discount)),
       SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)),
       AVG(l_quantity), AVG(l_extendedprice), AVG(l_discount), COUNT(*)
FROM lineitem
WHERE l_shipdate <= DATE '1998-09-02'
GROUP BY l_returnflag, l_linestatus`

// Q6Where is TPC-H query 6's predicate: one ship-date year, discounts
// within 0.06 ± 0.01, and quantities under 24.
const Q6Where = `l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01'
  AND l_discount BETWEEN 0.049 AND 0.071 AND l_quantity < 24`

// Q6SQL is TPC-H query 6, the forecasting revenue change query. Its ≈1.9 %
// selectivity and trivial arithmetic make it data-movement bound — the
// case where Relational Memory shines (Figure 7b).
const Q6SQL = `SELECT SUM(l_extendedprice * l_discount)
FROM lineitem
WHERE ` + Q6Where
