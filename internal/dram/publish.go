package dram

import "rfabric/internal/obs"

// Delta returns the counters accumulated since prev. All Stats fields are
// monotonically increasing, so a component-wise subtraction is exact.
func (s Stats) Delta(prev Stats) Stats {
	return Stats{
		Accesses:     s.Accesses - prev.Accesses,
		RowHits:      s.RowHits - prev.RowHits,
		RowMisses:    s.RowMisses - prev.RowMisses,
		BytesRead:    s.BytesRead - prev.BytesRead,
		GatherBytes:  s.GatherBytes - prev.GatherBytes,
		Cycles:       s.Cycles - prev.Cycles,
		BatchCycles:  s.BatchCycles - prev.BatchCycles,
		BatchedReqs:  s.BatchedReqs - prev.BatchedReqs,
		BatchesTotal: s.BatchesTotal - prev.BatchesTotal,
	}
}

// Add returns the component-wise sum of s and o, for folding the counters of
// several machines (PAR morsel clones) into one.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Accesses:     s.Accesses + o.Accesses,
		RowHits:      s.RowHits + o.RowHits,
		RowMisses:    s.RowMisses + o.RowMisses,
		BytesRead:    s.BytesRead + o.BytesRead,
		GatherBytes:  s.GatherBytes + o.GatherBytes,
		Cycles:       s.Cycles + o.Cycles,
		BatchCycles:  s.BatchCycles + o.BatchCycles,
		BatchedReqs:  s.BatchedReqs + o.BatchedReqs,
		BatchesTotal: s.BatchesTotal + o.BatchesTotal,
	}
}

// RowBufferHitRate returns row-buffer hits over all row activations.
func (s Stats) RowBufferHitRate() float64 {
	total := s.RowHits + s.RowMisses
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}

// Publish adds this stats snapshot (typically a Delta) into the registry as
// rfabric_dram_* counters. Callers attach identity through labels (engine
// kind, table, component).
func (s Stats) Publish(reg *obs.Registry, labels obs.LabelSet) {
	if reg == nil {
		return
	}
	reg.CounterOf("rfabric_dram_accesses_total", labels).Add(s.Accesses)
	reg.CounterOf("rfabric_dram_row_hits_total", labels).Add(s.RowHits)
	reg.CounterOf("rfabric_dram_row_misses_total", labels).Add(s.RowMisses)
	reg.CounterOf("rfabric_dram_bytes_read_total", labels).Add(s.BytesRead)
	reg.CounterOf("rfabric_dram_gather_bytes_total", labels).Add(s.GatherBytes)
	reg.CounterOf("rfabric_dram_cycles_total", labels).Add(s.Cycles)
	reg.CounterOf("rfabric_dram_batched_requests_total", labels).Add(s.BatchedReqs)
	reg.GaugeOf("rfabric_dram_row_buffer_hit_rate", labels).Set(s.RowBufferHitRate())
}
