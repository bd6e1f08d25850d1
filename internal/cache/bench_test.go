package cache

import (
	"testing"
	"time"

	"rfabric/internal/dram"
)

// BenchmarkHierarchy measures the simulator's host time per simulated load
// on the default geometry, replaying each access pattern the way the batch
// pipeline does: LoadAddrs over batches of 1024 rows' addresses. Run with
//
//	go test ./internal/cache -run '^$' -bench Hierarchy -benchtime=1x
//
// and read the ns/load column; one iteration replays the whole trace on a
// cold hierarchy.
func BenchmarkHierarchy(b *testing.B) {
	const rows = 1 << 16
	lb := int64(DefaultHierarchy().L1.LineBytes)

	// Row scan: 192-byte rows, three fields per row on two lines, over
	// 12 MB — far more lines than L2 holds, so the prefetcher and the
	// miss path carry it.
	var rowScan [][]int64
	for r := int64(0); r < rows; r += 1024 {
		batch := make([]int64, 0, 3*1024)
		for i := r; i < r+1024; i++ {
			row := i * 192
			batch = append(batch, row, row+8, row+72)
		}
		rowScan = append(rowScan, batch)
	}

	// Column reconstruction: four 8-byte columns 1 MB apart, read row by
	// row. Successive loads alternate lines, so most are L1 hits that miss
	// the same-line shortcut.
	var colScan [][]int64
	for r := int64(0); r < rows; r += 1024 {
		batch := make([]int64, 0, 4*1024)
		for i := r; i < r+1024; i++ {
			for c := int64(0); c < 4; c++ {
				batch = append(batch, c<<20+i*8)
			}
		}
		colScan = append(colScan, batch)
	}

	b.Run("row-scan", func(b *testing.B) { benchReplay(b, nil, rowScan) })
	b.Run("col-reconstruct", func(b *testing.B) { benchReplay(b, nil, colScan) })

	// Fabric delivery: each 4 KB chunk of packed 8-byte values is filled
	// into L2, then every value in it is demand-loaded.
	const chunk = 4096
	var fills, loads [][]int64
	for base := int64(0); base < rows*8; base += chunk {
		var f, l []int64
		for a := base; a < base+chunk; a += lb {
			f = append(f, a)
		}
		for a := base; a < base+chunk; a += 8 {
			l = append(l, a)
		}
		fills, loads = append(fills, f), append(loads, l)
	}
	b.Run("fabric-fill", func(b *testing.B) { benchReplay(b, fills, loads) })
}

// benchReplay replays the batches on a cold default hierarchy per
// iteration, fabric-filling fills[i] (when given) before loading batch i,
// and reports host nanoseconds per simulated load.
func benchReplay(b *testing.B, fills, batches [][]int64) {
	h := MustHierarchy(DefaultHierarchy(), dram.MustNew(dram.DefaultConfig()))
	var loads int
	var elapsed time.Duration
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		h.Reset()
		b.StartTimer()
		start := time.Now()
		for i, batch := range batches {
			if fills != nil {
				for _, a := range fills[i] {
					h.FillFromFabric(a)
				}
			}
			benchSink += h.LoadAddrs(batch)
			loads += len(batch)
		}
		elapsed += time.Since(start)
	}
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(loads), "ns/load")
}

// benchSink keeps the replayed costs live.
var benchSink uint64
