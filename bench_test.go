// Benchmarks regenerating every figure of the paper's evaluation (§V) plus
// the ablations DESIGN.md calls out. Each bench runs the corresponding
// experiment and reports the modeled metrics (simulated cycles, speedups)
// via b.ReportMetric, so `go test -bench=. -benchmem` prints the numbers
// EXPERIMENTS.md records. Wall-clock ns/op measures the simulator itself,
// not the modeled system.
//
// Sizes are scaled down so the full suite finishes in minutes; cmd/rfbench
// runs the same harness at any scale, including the paper's.
package rfabric

import (
	"testing"

	"rfabric/internal/experiments"
)

func benchOptions() experiments.Options {
	opt := experiments.DefaultOptions()
	opt.MicroRows = 48_000
	opt.Fig7TargetMB = []int{2, 4}
	return opt
}

// BenchmarkFigure5 regenerates the projectivity sweep (Figure 5) and
// reports each engine's cycles at projectivity 1 and 11, plus RM's
// normalized time (the paper's y-axis).
func BenchmarkFigure5(b *testing.B) {
	opt := benchOptions()
	var last *experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure5(opt)
		if err != nil {
			b.Fatal(err)
		}
		if bad := r.CheckShape(); len(bad) > 0 {
			b.Fatalf("shape violations: %v", bad)
		}
		last = r
	}
	first, final := last.Points[0], last.Points[len(last.Points)-1]
	b.ReportMetric(first.Normalized["RM"], "RM-norm@p1")
	b.ReportMetric(final.Normalized["RM"], "RM-norm@p11")
	b.ReportMetric(first.Normalized["COL"], "COL-norm@p1")
	b.ReportMetric(final.Normalized["COL"], "COL-norm@p11")
}

// BenchmarkFigure6 regenerates both speedup heatmaps (Figures 6a and 6b)
// and reports the corner cells the paper highlights.
func BenchmarkFigure6(b *testing.B) {
	opt := benchOptions()
	opt.MicroRows = 16_000 // 100 grid cells x 3 engines
	var last *experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure6(opt)
		if err != nil {
			b.Fatal(err)
		}
		if bad := r.CheckShape(); len(bad) > 0 {
			b.Fatalf("shape violations: %v", bad)
		}
		last = r
	}
	b.ReportMetric(last.VsRow[0][0], "RMvsROW@1,1")
	b.ReportMetric(last.VsRow[9][9], "RMvsROW@10,10")
	b.ReportMetric(last.VsCol[0][0], "RMvsCOL@1,1")
	b.ReportMetric(last.VsCol[9][9], "RMvsCOL@10,10")
}

// BenchmarkFigure7Q1 regenerates the TPC-H Q1 size sweep (Figure 7a).
func BenchmarkFigure7Q1(b *testing.B) {
	benchFigure7(b, experiments.Q1)
}

// BenchmarkFigure7Q6 regenerates the TPC-H Q6 size sweep (Figure 7b).
func BenchmarkFigure7Q6(b *testing.B) {
	benchFigure7(b, experiments.Q6)
}

func benchFigure7(b *testing.B, q experiments.TPCHQuery) {
	opt := benchOptions()
	var last *experiments.Fig7Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure7(opt, q)
		if err != nil {
			b.Fatal(err)
		}
		if bad := r.CheckShape(); len(bad) > 0 {
			b.Fatalf("shape violations: %v", bad)
		}
		last = r
	}
	pt := last.Points[len(last.Points)-1]
	b.ReportMetric(float64(pt.Cycles["ROW"])/float64(pt.Cycles["RM"]), "ROW/RM")
	b.ReportMetric(float64(pt.Cycles["COL"])/float64(pt.Cycles["RM"]), "COL/RM")
}

// BenchmarkAblationPrefetchStreams sweeps the prefetcher stream budget
// behind COL's <=4-column advantage.
func BenchmarkAblationPrefetchStreams(b *testing.B) {
	opt := benchOptions()
	opt.MicroRows = 24_000
	var last *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationPrefetchStreams(opt, []int{1, 2, 4, 8, 16})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.Points[0].Cycles["COL"])/float64(last.Points[len(last.Points)-1].Cycles["COL"]), "COL-1stream/16streams")
}

// BenchmarkAblationFabricBuffer sweeps the on-fabric buffer (2 MB in the
// prototype).
func BenchmarkAblationFabricBuffer(b *testing.B) {
	opt := benchOptions()
	opt.MicroRows = 24_000
	var last *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationFabricBuffer(opt, []int{64 << 10, 256 << 10, 1 << 20, 2 << 20, 8 << 20})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.Points[0].Cycles["RM"])/float64(last.Points[len(last.Points)-1].Cycles["RM"]), "RM-64K/8M")
}

// BenchmarkAblationFabricClock sweeps the CPU:fabric clock ratio (1:15 in
// the prototype).
func BenchmarkAblationFabricClock(b *testing.B) {
	opt := benchOptions()
	opt.MicroRows = 24_000
	var last *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationFabricClock(opt, []int{1, 5, 15, 30})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.Points[len(last.Points)-1].Cycles["RM"])/float64(last.Points[0].Cycles["RM"]), "RM-1:30/1:1")
}

// BenchmarkAblationDRAMBanks sweeps bank-level parallelism.
func BenchmarkAblationDRAMBanks(b *testing.B) {
	opt := benchOptions()
	opt.MicroRows = 24_000
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationDRAMBanks(opt, []int{1, 2, 4, 8, 16}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMVCCFiltering compares hardware timestamp filtering in
// the fabric against the row engine's software visibility checks.
func BenchmarkAblationMVCCFiltering(b *testing.B) {
	opt := benchOptions()
	var last *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationMVCC(opt, 30_000)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.Points[0].Cycles["ROW"])/float64(last.Points[1].Cycles["RM"]), "software/hardware")
}

// BenchmarkAblationPushdown compares projection-only RM with selection and
// aggregation pushdown on Q6.
func BenchmarkAblationPushdown(b *testing.B) {
	opt := benchOptions()
	var last *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationPushdown(opt, 40_000)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.Points[0].Cycles["RM"])/float64(last.Points[2].Cycles["RM"]), "time-proj/agg")
	b.ReportMetric(float64(last.Points[0].BytesToCPU)/float64(last.Points[2].BytesToCPU+1), "bytes-proj/agg")
}

// BenchmarkAblationIndex compares a B+tree point lookup with scans and a
// 10% range query with the fabric (§III-A's residual role for indexes).
func BenchmarkAblationIndex(b *testing.B) {
	opt := benchOptions()
	var last *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationIndex(opt, 30_000)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.Points[2].Cycles["RM"])/float64(last.Points[0].Cycles["IDX"]+1), "RMscan/IDXpoint")
	b.ReportMetric(float64(last.Points[8].Cycles["RM"])/float64(last.Points[7].Cycles["IDX"]+1), "RMrange30/IDXrange30")
}

// BenchmarkAblationRMC compares discrete Relational Memory against the
// memory-controller-integrated design point of §IV-C.
func BenchmarkAblationRMC(b *testing.B) {
	opt := benchOptions()
	var last *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationRMC(opt, 24_000)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.Points[0].Cycles["RM"])/float64(last.Points[1].Cycles["RM"]), "discrete/RMC")
}

// BenchmarkAblationCompression measures the §III-D codecs over lineitem
// columns.
func BenchmarkAblationCompression(b *testing.B) {
	opt := benchOptions()
	var last *experiments.CompressionResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationCompression(opt, 20_000)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	for _, p := range last.Points {
		if p.Codec == "dictionary(l_shipmode)" {
			b.ReportMetric(p.Ratio, "dict-ratio")
		}
	}
}

// BenchmarkAblationStorage compares Relational Storage with host-side
// scans on the flash model.
func BenchmarkAblationStorage(b *testing.B) {
	opt := benchOptions()
	var last *experiments.StorageResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationStorage(opt, 10_000)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.Points[1].Cycles)/float64(last.Points[0].Cycles), "host/near-raw")
}

// BenchmarkJoin runs the orders⋈items equi-join through the SQL façade on
// ROW and RM and reports the modeled speedup — the §III-B hybrid-engine
// workload.
func BenchmarkJoin(b *testing.B) {
	const q = `SELECT i_qty, i_price, o_region, o_total FROM items JOIN orders ON i_order = o_id`
	var rowCycles, rmCycles float64
	for i := 0; i < b.N; i++ {
		db, err := Open(DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		oSchema, _ := NewSchema(
			Column{Name: "o_id", Type: Int64, Width: 8},
			Column{Name: "o_region", Type: Int32, Width: 4},
			Column{Name: "o_total", Type: Float64, Width: 8},
			Column{Name: "o_note", Type: Char, Width: 20},
		)
		iSchema, _ := NewSchema(
			Column{Name: "i_order", Type: Int64, Width: 8},
			Column{Name: "i_qty", Type: Int32, Width: 4},
			Column{Name: "i_price", Type: Float64, Width: 8},
			Column{Name: "i_note", Type: Char, Width: 20},
		)
		if _, err := db.CreateTable("orders", oSchema, 10_000); err != nil {
			b.Fatal(err)
		}
		if _, err := db.CreateTable("items", iSchema, 30_000); err != nil {
			b.Fatal(err)
		}
		for o := 0; o < 10_000; o++ {
			if err := db.Insert("orders", I64(int64(o)), I32(int32(o%8)), F64(float64(o)), Str("order")); err != nil {
				b.Fatal(err)
			}
			for k := 0; k < o%4; k++ {
				if err := db.Insert("items", I64(int64(o)), I32(int32(k)), F64(float64(k)*2), Str("item")); err != nil {
					b.Fatal(err)
				}
			}
		}
		db.System().ResetState()
		row, err := db.QueryOn(ROW, q)
		if err != nil {
			b.Fatal(err)
		}
		db.System().ResetState()
		rm, err := db.QueryOn(RM, q)
		if err != nil {
			b.Fatal(err)
		}
		if row.Checksum != rm.Checksum {
			b.Fatal("join paths disagree")
		}
		rowCycles = float64(row.Breakdown.TotalCycles)
		rmCycles = float64(rm.Breakdown.TotalCycles)
	}
	b.ReportMetric(rowCycles/rmCycles, "ROW/RM")
}

// BenchmarkParallelShards runs the parallel-speedup experiment — TPC-H Q6
// over an 8-shard lineitem — and asserts the tentpole guarantees: the
// logical result (rows passed, checksum) is identical at every worker
// count, and the modeled makespan at 8 workers beats 1 worker by more than
// 1.5x. Wall-clock per worker count is reported as a metric only: on a
// single-core host the goroutine fan-out cannot win wall time, while the
// modeled parallel hardware still must.
func BenchmarkParallelShards(b *testing.B) {
	opt := benchOptions()
	var last *experiments.ParallelResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.ParallelSpeedup(opt, 8, opt.MicroRows, []int{1, 8})
		if err != nil {
			b.Fatal(err)
		}
		if bad := r.CheckShape(); len(bad) > 0 {
			b.Fatalf("shape violations: %v", bad)
		}
		last = r
	}
	one, eight := last.Points[0], last.Points[1]
	if one.RowsPassed != eight.RowsPassed || one.Checksum != eight.Checksum {
		b.Fatalf("worker count changed the result: rows %d/%d checksum %#x/%#x",
			one.RowsPassed, eight.RowsPassed, one.Checksum, eight.Checksum)
	}
	if eight.Speedup <= 1.5 {
		b.Fatalf("modeled speedup at 8 workers = %.2fx (1w=%d cyc, 8w=%d cyc), want > 1.5x",
			eight.Speedup, one.Cycles, eight.Cycles)
	}
	b.ReportMetric(eight.Speedup, "modeled-speedup@8w")
	b.ReportMetric(float64(one.Cycles), "cycles@1w")
	b.ReportMetric(float64(eight.Cycles), "cycles@8w")
	b.ReportMetric(float64(one.WallNanos), "wall-ns@1w")
	b.ReportMetric(float64(eight.WallNanos), "wall-ns@8w")
}
