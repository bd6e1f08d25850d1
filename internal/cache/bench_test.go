package cache

import (
	"testing"
	"time"

	"rfabric/internal/dram"
)

// BenchmarkHierarchy measures the simulator's host time per simulated load
// on the default geometry, replaying each access pattern the way the batch
// pipeline does: LoadRuns over batches of 1024 rows' runs. Run with
//
//	go test ./internal/cache -run '^$' -bench Hierarchy -benchtime=1x
//
// and read the ns/load column; one iteration replays the whole trace on a
// cold hierarchy.
func BenchmarkHierarchy(b *testing.B) {
	const rows = 1 << 16
	lb := int64(DefaultHierarchy().L1.LineBytes)

	// batches cuts rows into batches of 1024 and gives each batch's rows
	// one run over the streams of prog, started at the batch's first row.
	batches := func(prog ...Stream) []replayBatch {
		var out []replayBatch
		for r := int64(0); r < rows; r += 1024 {
			var bt replayBatch
			bt.runs = []Run{{Count: 1024, Streams: int32(len(prog))}}
			for _, st := range prog {
				bt.streams = append(bt.streams, Stream{Base: st.Base + r*st.Stride, Stride: st.Stride})
			}
			out = append(out, bt)
		}
		return out
	}

	// Row scan: 192-byte rows, three fields per row on two lines, over
	// 12 MB — far more lines than L2 holds, so the prefetcher and the
	// miss path carry it.
	b.Run("row-scan", func(b *testing.B) {
		benchReplay(b, nil, batches(Stream{0, 192}, Stream{8, 192}, Stream{72, 192}))
	})

	// Row misses: one load per 136-byte lineitem row, the shape of ROW Q6.
	// Successive rows skip a line, so every load is a demand miss and the
	// next-line prefetcher never trains.
	b.Run("row-miss", func(b *testing.B) { benchReplay(b, nil, batches(Stream{16, 136})) })

	// Column reconstruction: four 8-byte columns 1 MB apart, read row by
	// row. Successive loads alternate lines, so most are L1 hits on one of
	// the last lines touched.
	b.Run("col-reconstruct", func(b *testing.B) {
		benchReplay(b, nil, batches(Stream{0, 8}, Stream{1 << 20, 8}, Stream{2 << 20, 8}, Stream{3 << 20, 8}))
	})

	// COL refine pass: a 4-byte value column interleaved with a 1-byte
	// bitmap of the same rows.
	b.Run("col-refine", func(b *testing.B) { benchReplay(b, nil, batches(Stream{0, 4}, Stream{8 << 20, 1})) })

	// Fabric delivery: each 4 KB chunk of packed 8-byte values is filled
	// into L2, then every value in it is demand-loaded.
	const chunk = 4096
	var fills [][]int64
	var loads []replayBatch
	for base := int64(0); base < rows*8; base += chunk {
		var f []int64
		for a := base; a < base+chunk; a += lb {
			f = append(f, a)
		}
		fills = append(fills, f)
		loads = append(loads, replayBatch{runs: []Run{{Count: chunk / 8, Streams: 1}}, streams: []Stream{{base, 8}}})
	}
	b.Run("fabric-fill", func(b *testing.B) { benchReplay(b, fills, loads) })
}

// replayBatch is one LoadRuns call.
type replayBatch struct {
	runs    []Run
	streams []Stream
}

// loads counts the batch's loads.
func (bt replayBatch) loads() int {
	n := 0
	for _, r := range bt.runs {
		n += int(r.Count) * int(r.Streams)
	}
	return n
}

// benchReplay replays the batches on a cold default hierarchy per
// iteration, fabric-filling fills[i] (when given) before loading batch i,
// and reports host nanoseconds per simulated load.
func benchReplay(b *testing.B, fills [][]int64, batches []replayBatch) {
	h := MustHierarchy(DefaultHierarchy(), dram.MustNew(dram.DefaultConfig()))
	var loads int
	var elapsed time.Duration
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		h.Reset()
		b.StartTimer()
		start := time.Now()
		for i, bt := range batches {
			if fills != nil {
				for _, a := range fills[i] {
					h.FillFromFabric(a)
				}
			}
			benchSink += h.LoadRuns(bt.runs, bt.streams)
			loads += bt.loads()
		}
		elapsed += time.Since(start)
	}
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(loads), "ns/load")
}

// benchSink keeps the replayed costs live.
var benchSink uint64
