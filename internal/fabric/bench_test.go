package fabric

import (
	"math/rand"
	"testing"
	"time"

	"rfabric/internal/dram"
	"rfabric/internal/expr"
	"rfabric/internal/geometry"
	"rfabric/internal/table"
	"rfabric/internal/vec"
)

// BenchmarkEphemeralNext measures the fabric view's host time per scanned
// source row on a 64K-row lineitem-like table. Run with
//
//	go test ./internal/fabric -run '^$' -bench EphemeralNext -benchtime=1x
//
// and read the ns/row column; one iteration configures a fresh view (as
// every query does) and drains it.
func BenchmarkEphemeralNext(b *testing.B) {
	const rows = 1 << 16
	sch := geometry.MustSchema(
		geometry.Column{Name: "orderkey", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "shipdate", Type: geometry.Date, Width: 4},
		geometry.Column{Name: "mode", Type: geometry.Char, Width: 10},
		geometry.Column{Name: "price", Type: geometry.Float64, Width: 8},
		geometry.Column{Name: "qty", Type: geometry.Int32, Width: 4},
		geometry.Column{Name: "comment", Type: geometry.Char, Width: 24},
	)
	modes := []string{"AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB", "REG AIR"}
	build := func(opts ...table.Option) *table.Table {
		rng := rand.New(rand.NewSource(1))
		tbl := table.MustNew("lineitem", sch, append(opts, table.WithCapacity(rows))...)
		for r := 0; r < rows; r++ {
			tbl.MustAppend(uint64(rng.Intn(4)),
				table.I64(int64(r/4)),
				table.DateV(8000+rng.Int31n(2500)),
				table.Str(modes[rng.Intn(len(modes))]),
				table.F64(float64(rng.Intn(100000))/100),
				table.I32(1+rng.Int31n(50)),
				table.Str("regular deposits"),
			)
		}
		return tbl
	}
	plain := build()
	mvcc := build(table.WithMVCC())
	rng := rand.New(rand.NewSource(2))
	for r := 0; r < rows; r++ {
		if rng.Intn(4) == 0 {
			_ = mvcc.SetEndTS(r, 2+uint64(rng.Intn(4)))
		}
	}
	geom := geometry.MustGeometry(sch, 0, 3, 4)

	bl := NewBloom(rows / 16)
	for k := int64(0); k < rows/4; k += 4 {
		bl.Add(vec.AppendJoinKeyI64(nil, k))
	}

	b.Run("pack", func(b *testing.B) { benchNext(b, plain, geom) })
	b.Run("date-char-pred", func(b *testing.B) {
		benchNext(b, plain, geom, WithSelection(expr.Conjunction{
			{Col: 1, Op: expr.Lt, Operand: table.DateV(9500)},
			{Col: 2, Op: expr.Eq, Operand: table.Str("AIR")},
		}))
	})
	b.Run("semi-bigint", func(b *testing.B) {
		benchNext(b, plain, geom, WithSemiJoin(&SemiJoin{Col: 0, Filter: bl}))
	})
	mvccGeom := geometry.MustGeometry(mvcc.Schema(), 0, 3, 4)
	b.Run("mvcc-snapshot", func(b *testing.B) { benchNext(b, mvcc, mvccGeom, WithSnapshot(3)) })
}

// benchNext configures and drains a view of tbl per iteration and reports
// host nanoseconds per scanned source row.
func benchNext(b *testing.B, tbl *table.Table, geom *geometry.Geometry, opts ...ViewOption) {
	eng := MustNew(DefaultConfig(), dram.MustNew(dram.DefaultConfig()), dram.MustArena(1<<40, 64))
	b.ReportAllocs()
	var scanned int
	var elapsed time.Duration
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		start := time.Now()
		ev, err := eng.Configure(tbl, geom, opts...)
		if err != nil {
			b.Fatal(err)
		}
		for {
			ch, ok := ev.Next()
			if !ok {
				break
			}
			scanned += ch.SourceRows
		}
		elapsed += time.Since(start)
	}
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(scanned), "ns/row")
}
