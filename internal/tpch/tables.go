package tpch

import (
	"fmt"
	"math/rand"

	"rfabric/internal/geometry"
	"rfabric/internal/table"
)

// Multi-table TPC-H: orders, customer, and part generators whose keys
// correlate with the lineitem generator, plus the Q3/Q5/Q10-class join
// query texts. Lineitem row i carries l_orderkey = i/4+1 and a part key
// uniform in [1, 200000], so a lineitem table of n rows joins every row
// against an orders table of OrdersFor(n) rows and a part table whose keys
// cover a prefix of the part-key domain.

// Orders column indices, in schema order.
const (
	OOrderKey = iota
	OCustKey
	OOrderStatus
	OTotalPrice
	OOrderDate
	OOrderPriority
	OShipPriority
	ordersColumns
)

// Customer column indices, in schema order.
const (
	CCustKey = iota
	CName
	CNationKey
	CAcctBal
	CMktSegment
	customerColumns
)

// Part column indices, in schema order.
const (
	PPartKey = iota
	PName
	PBrand
	PSize
	PRetailPrice
	partColumns
)

// PartKeyDomain is the l_partkey value range of the lineitem generator.
const PartKeyDomain = 200000

// Order dates span 1991-09-01 through 1998-10-27 so that Q3's 1995-03-15
// cutoff splits the population roughly in half.
const (
	orderDateLo = 7913  // 1991-09-01
	orderDateHi = 10526 // 1998-10-27
)

// Q3CutoffDate is 1995-03-15, Q3's order/ship date pivot.
const Q3CutoffDate = 9204

// OrdersSchema returns the fixed-width orders layout.
func OrdersSchema() *geometry.Schema {
	return geometry.MustSchema(
		geometry.Column{Name: "o_orderkey", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "o_custkey", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "o_orderstatus", Type: geometry.Char, Width: 1},
		geometry.Column{Name: "o_totalprice", Type: geometry.Float64, Width: 8},
		geometry.Column{Name: "o_orderdate", Type: geometry.Date, Width: 4},
		geometry.Column{Name: "o_orderpriority", Type: geometry.Char, Width: 15},
		geometry.Column{Name: "o_shippriority", Type: geometry.Int32, Width: 4},
	)
}

// CustomerSchema returns the fixed-width customer layout.
func CustomerSchema() *geometry.Schema {
	return geometry.MustSchema(
		geometry.Column{Name: "c_custkey", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "c_name", Type: geometry.Char, Width: 18},
		geometry.Column{Name: "c_nationkey", Type: geometry.Int32, Width: 4},
		geometry.Column{Name: "c_acctbal", Type: geometry.Float64, Width: 8},
		geometry.Column{Name: "c_mktsegment", Type: geometry.Char, Width: 10},
	)
}

// PartSchema returns the fixed-width part layout.
func PartSchema() *geometry.Schema {
	return geometry.MustSchema(
		geometry.Column{Name: "p_partkey", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "p_name", Type: geometry.Char, Width: 22},
		geometry.Column{Name: "p_brand", Type: geometry.Char, Width: 10},
		geometry.Column{Name: "p_size", Type: geometry.Int32, Width: 4},
		geometry.Column{Name: "p_retailprice", Type: geometry.Float64, Width: 8},
	)
}

// OrdersFor returns the orders row count that covers every l_orderkey a
// lineitem table of lineitemRows rows generates (keys run 1..⌈n/4⌉).
func OrdersFor(lineitemRows int) int {
	n := (lineitemRows + 3) / 4
	if n < 1 {
		n = 1
	}
	return n
}

// CustomersFor returns the customer row count for an orders table of
// orderRows rows: one customer per ten orders, at least one.
func CustomersFor(orderRows int) int {
	n := orderRows / 10
	if n < 1 {
		n = 1
	}
	return n
}

var (
	orderPriorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECI", "5-LOW"}
	mktSegments     = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	partNouns       = []string{"almond", "antique", "aquamarine", "azure", "beige", "bisque", "black", "blanched", "blue", "blush"}
)

// GenerateOrders populates tbl with n deterministic orders rows from seed.
// o_orderkey runs 1..n (matching the lineitem foreign keys); o_custkey is
// uniform in [1, CustomersFor(n)].
func GenerateOrders(tbl *table.Table, n int, seed int64) error {
	sch := tbl.Schema()
	if sch.NumColumns() != ordersColumns {
		return fmt.Errorf("tpch: orders table has %d columns, want %d", sch.NumColumns(), ordersColumns)
	}
	rng := rand.New(rand.NewSource(seed))
	nCust := CustomersFor(n)
	vals := make([]table.Value, ordersColumns)
	for i := 0; i < n; i++ {
		date := int32(orderDateLo + rng.Intn(orderDateHi-orderDateLo+1))
		status := "O"
		if date <= Q3CutoffDate {
			status = "F"
		}
		vals[OOrderKey] = table.I64(int64(i + 1))
		vals[OCustKey] = table.I64(int64(rng.Intn(nCust) + 1))
		vals[OOrderStatus] = table.Str(status)
		vals[OTotalPrice] = table.F64(1000 + float64(rng.Intn(450000))/100)
		vals[OOrderDate] = table.DateV(date)
		vals[OOrderPriority] = table.Str(orderPriorities[rng.Intn(len(orderPriorities))])
		vals[OShipPriority] = table.I32(0)

		if _, err := tbl.Append(1, vals...); err != nil {
			return err
		}
	}
	return nil
}

// GenerateCustomer populates tbl with n deterministic customer rows from
// seed. c_custkey runs 1..n (matching GenerateOrders' foreign keys).
func GenerateCustomer(tbl *table.Table, n int, seed int64) error {
	sch := tbl.Schema()
	if sch.NumColumns() != customerColumns {
		return fmt.Errorf("tpch: customer table has %d columns, want %d", sch.NumColumns(), customerColumns)
	}
	rng := rand.New(rand.NewSource(seed))
	vals := make([]table.Value, customerColumns)
	for i := 0; i < n; i++ {
		vals[CCustKey] = table.I64(int64(i + 1))
		vals[CName] = table.Str(fmt.Sprintf("Customer#%09d", i+1))
		vals[CNationKey] = table.I32(int32(rng.Intn(25)))
		vals[CAcctBal] = table.F64(float64(rng.Intn(1100000))/100 - 1000)
		vals[CMktSegment] = table.Str(mktSegments[rng.Intn(len(mktSegments))])

		if _, err := tbl.Append(1, vals...); err != nil {
			return err
		}
	}
	return nil
}

// GeneratePart populates tbl with n deterministic part rows from seed.
// p_partkey runs 1..n; with n = PartKeyDomain every l_partkey resolves.
func GeneratePart(tbl *table.Table, n int, seed int64) error {
	sch := tbl.Schema()
	if sch.NumColumns() != partColumns {
		return fmt.Errorf("tpch: part table has %d columns, want %d", sch.NumColumns(), partColumns)
	}
	rng := rand.New(rand.NewSource(seed))
	vals := make([]table.Value, partColumns)
	for i := 0; i < n; i++ {
		vals[PPartKey] = table.I64(int64(i + 1))
		vals[PName] = table.Str(partNouns[rng.Intn(len(partNouns))] + " " + partNouns[rng.Intn(len(partNouns))])
		vals[PBrand] = table.Str(fmt.Sprintf("Brand#%d%d", rng.Intn(5)+1, rng.Intn(5)+1))
		vals[PSize] = table.I32(int32(rng.Intn(50) + 1))
		vals[PRetailPrice] = table.F64(900 + float64((i+1)%2000)*10)

		if _, err := tbl.Append(1, vals...); err != nil {
			return err
		}
	}
	return nil
}

// NewOrders creates and populates an orders table of n rows.
func NewOrders(n int, seed int64, opts ...table.Option) (*table.Table, error) {
	opts = append(opts, table.WithCapacity(n))
	tbl, err := table.New("orders", OrdersSchema(), opts...)
	if err != nil {
		return nil, err
	}
	if err := GenerateOrders(tbl, n, seed); err != nil {
		return nil, err
	}
	return tbl, nil
}

// NewCustomer creates and populates a customer table of n rows.
func NewCustomer(n int, seed int64, opts ...table.Option) (*table.Table, error) {
	opts = append(opts, table.WithCapacity(n))
	tbl, err := table.New("customer", CustomerSchema(), opts...)
	if err != nil {
		return nil, err
	}
	if err := GenerateCustomer(tbl, n, seed); err != nil {
		return nil, err
	}
	return tbl, nil
}

// NewPart creates and populates a part table of n rows.
func NewPart(n int, seed int64, opts ...table.Option) (*table.Table, error) {
	opts = append(opts, table.WithCapacity(n))
	tbl, err := table.New("part", PartSchema(), opts...)
	if err != nil {
		return nil, err
	}
	if err := GeneratePart(tbl, n, seed); err != nil {
		return nil, err
	}
	return tbl, nil
}

// Q3SQL is the Q3-class shipping-priority query over lineitem ⋈ orders:
// revenue per order for orders placed before the cutoff whose items shipped
// after it. (The official Q3 adds the customer segment filter — Q10SQL
// exercises that three-table form.)
const Q3SQL = `SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)), o_orderdate
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
WHERE o_orderdate < DATE '1995-03-15' AND l_shipdate > DATE '1995-03-15'
GROUP BY l_orderkey, o_orderdate`

// Q10SQL is the Q10-class returned-item reporting query over
// lineitem ⋈ orders ⋈ customer: revenue lost to returned items per
// customer nation in a half-year window.
const Q10SQL = `SELECT c_nationkey, SUM(l_extendedprice * (1 - l_discount)), COUNT(*)
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
WHERE l_returnflag = 'R'
  AND o_orderdate >= DATE '1993-10-01' AND o_orderdate < DATE '1994-04-01'
GROUP BY c_nationkey`

// Q5SQL is a Q5-class local-supplier-volume simplification over
// lineitem ⋈ part: revenue per part brand for a size band. (The official
// Q5 joins six tables through region/nation; this keeps its
// revenue-per-dimension-group shape on the tables the generator provides.)
const Q5SQL = `SELECT p_brand, SUM(l_extendedprice * (1 - l_discount)), COUNT(*)
FROM lineitem JOIN part ON l_partkey = p_partkey
WHERE p_size <= 15
GROUP BY p_brand`
