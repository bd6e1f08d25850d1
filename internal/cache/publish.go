package cache

import "rfabric/internal/obs"

// Delta returns the counters accumulated since prev. All Stats fields are
// monotonically increasing, so a component-wise subtraction is exact.
func (s Stats) Delta(prev Stats) Stats {
	return Stats{
		Loads:            s.Loads - prev.Loads,
		L1Hits:           s.L1Hits - prev.L1Hits,
		L2Hits:           s.L2Hits - prev.L2Hits,
		PrefetchHits:     s.PrefetchHits - prev.PrefetchHits,
		DRAMFills:        s.DRAMFills - prev.DRAMFills,
		OverlappedMisses: s.OverlappedMisses - prev.OverlappedMisses,
		PrefetchIssued:   s.PrefetchIssued - prev.PrefetchIssued,
		FabricFills:      s.FabricFills - prev.FabricFills,
		Cycles:           s.Cycles - prev.Cycles,
		BytesFromDRAM:    s.BytesFromDRAM - prev.BytesFromDRAM,
	}
}

// Add returns the component-wise sum of s and o, for folding the counters of
// several machines (PAR morsel clones) into one.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Loads:            s.Loads + o.Loads,
		L1Hits:           s.L1Hits + o.L1Hits,
		L2Hits:           s.L2Hits + o.L2Hits,
		PrefetchHits:     s.PrefetchHits + o.PrefetchHits,
		DRAMFills:        s.DRAMFills + o.DRAMFills,
		OverlappedMisses: s.OverlappedMisses + o.OverlappedMisses,
		PrefetchIssued:   s.PrefetchIssued + o.PrefetchIssued,
		FabricFills:      s.FabricFills + o.FabricFills,
		Cycles:           s.Cycles + o.Cycles,
		BytesFromDRAM:    s.BytesFromDRAM + o.BytesFromDRAM,
	}
}

// Publish adds this stats snapshot (typically a Delta) into the registry as
// rfabric_cache_* counters plus the derived miss-ratio gauge.
func (s Stats) Publish(reg *obs.Registry, labels obs.LabelSet) {
	if reg == nil {
		return
	}
	reg.CounterOf("rfabric_cache_loads_total", labels).Add(s.Loads)
	reg.CounterOf("rfabric_cache_l1_hits_total", labels).Add(s.L1Hits)
	reg.CounterOf("rfabric_cache_l2_hits_total", labels).Add(s.L2Hits)
	reg.CounterOf("rfabric_cache_prefetch_hits_total", labels).Add(s.PrefetchHits)
	reg.CounterOf("rfabric_cache_dram_fills_total", labels).Add(s.DRAMFills)
	reg.CounterOf("rfabric_cache_overlapped_misses_total", labels).Add(s.OverlappedMisses)
	reg.CounterOf("rfabric_cache_prefetch_issued_total", labels).Add(s.PrefetchIssued)
	reg.CounterOf("rfabric_cache_fabric_fills_total", labels).Add(s.FabricFills)
	reg.CounterOf("rfabric_cache_cycles_total", labels).Add(s.Cycles)
	reg.CounterOf("rfabric_cache_bytes_from_dram_total", labels).Add(s.BytesFromDRAM)
	reg.GaugeOf("rfabric_cache_miss_ratio", labels).Set(s.MissRatio())
}
