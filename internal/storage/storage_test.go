package storage

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"rfabric/internal/expr"
	"rfabric/internal/geometry"
	"rfabric/internal/table"
)

func testTable(t *testing.T, rows int) *table.Table {
	t.Helper()
	sch := geometry.MustSchema(
		geometry.Column{Name: "id", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "grp", Type: geometry.Int32, Width: 4},
		geometry.Column{Name: "price", Type: geometry.Float64, Width: 8},
		geometry.Column{Name: "note", Type: geometry.Char, Width: 12},
	)
	tbl := table.MustNew("t", sch, table.WithCapacity(rows))
	rng := rand.New(rand.NewSource(21))
	notes := []string{"alpha", "bravo", "charlie", "delta"}
	for r := 0; r < rows; r++ {
		tbl.MustAppend(0,
			table.I64(int64(r)),
			table.I32(int32(rng.Intn(8))),
			table.F64(float64(rng.Intn(1000))/4),
			table.Str(notes[rng.Intn(len(notes))]),
		)
	}
	return tbl
}

func TestDeviceConfigValidation(t *testing.T) {
	if err := DefaultDeviceConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*DeviceConfig){
		func(c *DeviceConfig) { c.Channels = 0 },
		func(c *DeviceConfig) { c.DiesPerChan = 0 },
		func(c *DeviceConfig) { c.PageBytes = 1000 },
		func(c *DeviceConfig) { c.PageReadCycles = 0 },
		func(c *DeviceConfig) { c.TransferCyclesPerByte = 0 },
		func(c *DeviceConfig) { c.ControllerCyclesPerByte = 0 },
		func(c *DeviceConfig) { c.HostCyclesPerByte = 0 },
	}
	for i, mutate := range mutations {
		c := DefaultDeviceConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestWritePageBounds(t *testing.T) {
	dev, err := NewDevice(DefaultDeviceConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.WritePage(make([]byte, dev.Config().PageBytes+1)); err == nil {
		t.Error("oversized page accepted")
	}
	pn, err := dev.WritePage([]byte{1, 2, 3})
	if err != nil || pn != 0 {
		t.Fatalf("WritePage: %d, %v", pn, err)
	}
	page, err := dev.Page(0)
	if err != nil {
		t.Fatal(err)
	}
	if page[0] != 1 || page[3] != 0 {
		t.Error("page content or padding wrong")
	}
	if _, err := dev.Page(1); err == nil {
		t.Error("out-of-range page accepted")
	}
}

func TestStoreTableLayout(t *testing.T) {
	tbl := testTable(t, 1000)
	dev, _ := NewDevice(DefaultDeviceConfig())
	ps, err := StoreTable(dev, tbl, false)
	if err != nil {
		t.Fatal(err)
	}
	rowsPerPage := dev.Config().PageBytes / tbl.Schema().RowBytes()
	wantPages := (1000 + rowsPerPage - 1) / rowsPerPage
	if ps.NumPages() != wantPages {
		t.Errorf("pages = %d, want %d", ps.NumPages(), wantPages)
	}
	if ps.NumRows() != 1000 {
		t.Errorf("rows = %d", ps.NumRows())
	}
}

func TestStoreTableRejectsMVCC(t *testing.T) {
	sch := geometry.MustSchema(geometry.Column{Name: "id", Type: geometry.Int64, Width: 8})
	tbl := table.MustNew("t", sch, table.WithMVCC())
	dev, _ := NewDevice(DefaultDeviceConfig())
	if _, err := StoreTable(dev, tbl, false); err == nil {
		t.Error("MVCC table accepted at the storage tier")
	}
}

func scanBoth(t *testing.T, compressed bool, rows int, preds expr.Conjunction, cols ...int) (*ScanResult, *ScanResult, *table.Table) {
	t.Helper()
	tbl := testTable(t, rows)
	dev, _ := NewDevice(DefaultDeviceConfig())
	ps, err := StoreTable(dev, tbl, compressed)
	if err != nil {
		t.Fatal(err)
	}
	geom := geometry.MustGeometry(tbl.Schema(), cols...)
	near, err := ps.ScanNearStorage(geom, preds)
	if err != nil {
		t.Fatal(err)
	}
	host, err := ps.ScanHost(geom, preds)
	if err != nil {
		t.Fatal(err)
	}
	return near, host, tbl
}

func TestNearStorageMatchesHost(t *testing.T) {
	for _, compressed := range []bool{false, true} {
		preds := expr.Conjunction{{Col: 1, Op: expr.Lt, Operand: table.I32(4)}}
		near, host, _ := scanBoth(t, compressed, 500, preds, 0, 2)
		if !bytes.Equal(near.Packed, host.Packed) {
			t.Errorf("compressed=%v: near-storage and host scans disagree", compressed)
		}
		if near.Rows != host.Rows || near.Rows == 0 || near.Rows == 500 {
			t.Errorf("compressed=%v: rows near=%d host=%d", compressed, near.Rows, host.Rows)
		}
	}
}

func TestNearStorageShipsLess(t *testing.T) {
	// Selective scan over a narrow column group: near-storage ships the
	// packed survivors; the host path ships every page.
	preds := expr.Conjunction{{Col: 1, Op: expr.Eq, Operand: table.I32(0)}}
	near, host, _ := scanBoth(t, false, 2000, preds, 0)
	if near.BytesToHost >= host.BytesToHost {
		t.Errorf("near-storage shipped %d bytes, host %d — pushdown should ship less",
			near.BytesToHost, host.BytesToHost)
	}
	if near.Cycles >= host.Cycles {
		t.Errorf("near-storage took %d cycles, host %d — pushdown should be faster here",
			near.Cycles, host.Cycles)
	}
}

func TestCompressedPagesReduceWireBytesForHost(t *testing.T) {
	preds := expr.Conjunction{}
	_, hostRaw, _ := scanBoth(t, false, 2000, preds, 0, 1, 2, 3)
	_, hostComp, _ := scanBoth(t, true, 2000, preds, 0, 1, 2, 3)
	if hostComp.BytesToHost >= hostRaw.BytesToHost {
		t.Errorf("compressed pages moved %d bytes to host, raw %d", hostComp.BytesToHost, hostRaw.BytesToHost)
	}
}

func TestScanValidation(t *testing.T) {
	tbl := testTable(t, 10)
	dev, _ := NewDevice(DefaultDeviceConfig())
	ps, err := StoreTable(dev, tbl, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ps.ScanNearStorage(nil, nil); err == nil {
		t.Error("nil geometry accepted")
	}
	other := geometry.MustSchema(geometry.Column{Name: "x", Type: geometry.Int64, Width: 8})
	if _, err := ps.ScanNearStorage(geometry.MustGeometry(other, 0), nil); err == nil {
		t.Error("foreign geometry accepted")
	}
	badPred := expr.Conjunction{{Col: 77, Op: expr.Eq, Operand: table.I64(0)}}
	if _, err := ps.ScanHost(geometry.MustGeometry(tbl.Schema(), 0), badPred); err == nil {
		t.Error("invalid predicate accepted")
	}
}

func TestChannelParallelism(t *testing.T) {
	// Reading N pages over C channels should cost about ceil(N/(C*dies))
	// page times, not N page times.
	cfg := DefaultDeviceConfig()
	dev, _ := NewDevice(cfg)
	var pages []int
	for i := 0; i < cfg.Channels*cfg.DiesPerChan*2; i++ {
		if _, err := dev.WritePage(nil); err != nil {
			t.Fatal(err)
		}
		pages = append(pages, i)
	}
	cycles, err := dev.readPages(pages)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * cfg.PageReadCycles; cycles != want {
		t.Errorf("reading %d pages cost %d cycles, want %d (2 pipelined rounds)", len(pages), cycles, want)
	}
}

// TestScanEquivalenceProperty: near-storage and host scans agree for random
// predicates, geometries, and page compression.
func TestScanEquivalenceProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := rng.Intn(400) + 1
		tbl := testTableSeeded(rows, rng.Int63())
		dev, _ := NewDevice(DefaultDeviceConfig())
		ps, err := StoreTable(dev, tbl, rng.Intn(2) == 0)
		if err != nil {
			return false
		}
		cols := []int{rng.Intn(4)}
		if rng.Intn(2) == 0 {
			cols = append(cols, (cols[0]+1+rng.Intn(3))%4)
			if cols[1] == cols[0] {
				cols = cols[:1]
			}
		}
		geom, err := geometry.NewGeometry(tbl.Schema(), cols...)
		if err != nil {
			return false
		}
		var preds expr.Conjunction
		if rng.Intn(2) == 0 {
			preds = expr.Conjunction{{Col: 1, Op: expr.Lt, Operand: table.I32(int32(rng.Intn(9)))}}
		}
		near, err := ps.ScanNearStorage(geom, preds)
		if err != nil {
			return false
		}
		host, err := ps.ScanHost(geom, preds)
		if err != nil {
			return false
		}
		return bytes.Equal(near.Packed, host.Packed) && near.Rows == host.Rows
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func testTableSeeded(rows int, seed int64) *table.Table {
	sch := geometry.MustSchema(
		geometry.Column{Name: "id", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "grp", Type: geometry.Int32, Width: 4},
		geometry.Column{Name: "price", Type: geometry.Float64, Width: 8},
		geometry.Column{Name: "note", Type: geometry.Char, Width: 12},
	)
	tbl := table.MustNew("t", sch, table.WithCapacity(rows))
	rng := rand.New(rand.NewSource(seed))
	for r := 0; r < rows; r++ {
		tbl.MustAppend(0,
			table.I64(rng.Int63()),
			table.I32(int32(rng.Intn(8))),
			table.F64(rng.Float64()*100),
			table.Str("note"),
		)
	}
	return tbl
}

func TestAggregateNearStorageMatchesScan(t *testing.T) {
	tbl := testTable(t, 1500)
	dev, _ := NewDevice(DefaultDeviceConfig())
	ps, err := StoreTable(dev, tbl, true)
	if err != nil {
		t.Fatal(err)
	}
	geom := geometry.MustGeometry(tbl.Schema(), 2)
	preds := expr.Conjunction{{Col: 1, Op: expr.Lt, Operand: table.I32(4)}}
	agg, err := ps.AggregateNearStorage(geom, preds, []expr.AggSpec{
		{Kind: expr.Count},
		{Kind: expr.Sum, Col: 2},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Software reference over the base table.
	var count int
	var sum float64
	for r := 0; r < tbl.NumRows(); r++ {
		g, _ := tbl.Get(r, 1)
		if g.Int >= 4 {
			continue
		}
		count++
		p, _ := tbl.Get(r, 2)
		sum += p.Float
	}
	if agg.Values[0].Int != int64(count) || agg.RowsQualified != count {
		t.Errorf("COUNT = %s (%d qualified), want %d", agg.Values[0], agg.RowsQualified, count)
	}
	if agg.Values[1].Float != sum {
		t.Errorf("SUM = %s, want %v", agg.Values[1], sum)
	}
	if agg.BytesToHost != 16 {
		t.Errorf("aggregation shipped %d bytes, want 16", agg.BytesToHost)
	}
	// Compare against shipping packed columns: the aggregate path moves
	// orders of magnitude less.
	dev2, _ := NewDevice(DefaultDeviceConfig())
	ps2, _ := StoreTable(dev2, tbl, true)
	scan, err := ps2.ScanNearStorage(geom, preds)
	if err != nil {
		t.Fatal(err)
	}
	if agg.BytesToHost*10 > scan.BytesToHost {
		t.Errorf("aggregate bytes %d not well below scan bytes %d", agg.BytesToHost, scan.BytesToHost)
	}
}

func TestAggregateNearStorageValidation(t *testing.T) {
	tbl := testTable(t, 50)
	dev, _ := NewDevice(DefaultDeviceConfig())
	ps, _ := StoreTable(dev, tbl, false)
	geom := geometry.MustGeometry(tbl.Schema(), 0)
	if _, err := ps.AggregateNearStorage(geom, nil, nil); err == nil {
		t.Error("empty specs accepted")
	}
	if _, err := ps.AggregateNearStorage(geom, nil, []expr.AggSpec{{Kind: expr.Sum, Col: 2}}); err == nil {
		t.Error("aggregate over column outside the geometry accepted")
	}
	if _, err := ps.AggregateNearStorage(geom, nil, []expr.AggSpec{{Kind: expr.Sum, Col: 99}}); err == nil {
		t.Error("aggregate column out of range accepted")
	}
	if _, err := ps.AggregateNearStorage(geom, nil, []expr.AggSpec{{Kind: expr.Min, Col: -1}}); err == nil {
		t.Error("negative aggregate column accepted")
	}
	notes := geometry.MustGeometry(tbl.Schema(), 0, 3)
	if _, err := ps.AggregateNearStorage(notes, nil, []expr.AggSpec{{Kind: expr.Sum, Col: 3}}); err == nil {
		t.Error("SUM over CHAR accepted")
	}
	if _, err := ps.AggregateNearStorage(notes, nil, []expr.AggSpec{{Kind: expr.Max, Col: 3}}); err == nil {
		t.Error("MAX over CHAR accepted")
	}
}
