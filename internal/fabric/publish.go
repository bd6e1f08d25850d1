package fabric

import "rfabric/internal/obs"

// Delta returns the counters accumulated since prev. All Stats fields are
// monotonically increasing, so a component-wise subtraction is exact.
func (s Stats) Delta(prev Stats) Stats {
	return Stats{
		RowsScanned:   s.RowsScanned - prev.RowsScanned,
		RowsShipped:   s.RowsShipped - prev.RowsShipped,
		BytesShipped:  s.BytesShipped - prev.BytesShipped,
		LinesShipped:  s.LinesShipped - prev.LinesShipped,
		BytesGathered: s.BytesGathered - prev.BytesGathered,
		GatherCycles:  s.GatherCycles - prev.GatherCycles,
		ComputeCycles: s.ComputeCycles - prev.ComputeCycles,
		Chunks:        s.Chunks - prev.Chunks,
		Aggregates:    s.Aggregates - prev.Aggregates,

		RowsSemiFiltered: s.RowsSemiFiltered - prev.RowsSemiFiltered,
		RowsCodeFiltered: s.RowsCodeFiltered - prev.RowsCodeFiltered,
		EntriesDecoded:   s.EntriesDecoded - prev.EntriesDecoded,
	}
}

// Add returns the component-wise sum of s and o, for folding the counters of
// several machines (PAR morsel clones) into one.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		RowsScanned:   s.RowsScanned + o.RowsScanned,
		RowsShipped:   s.RowsShipped + o.RowsShipped,
		BytesShipped:  s.BytesShipped + o.BytesShipped,
		LinesShipped:  s.LinesShipped + o.LinesShipped,
		BytesGathered: s.BytesGathered + o.BytesGathered,
		GatherCycles:  s.GatherCycles + o.GatherCycles,
		ComputeCycles: s.ComputeCycles + o.ComputeCycles,
		Chunks:        s.Chunks + o.Chunks,
		Aggregates:    s.Aggregates + o.Aggregates,

		RowsSemiFiltered: s.RowsSemiFiltered + o.RowsSemiFiltered,
		RowsCodeFiltered: s.RowsCodeFiltered + o.RowsCodeFiltered,
		EntriesDecoded:   s.EntriesDecoded + o.EntriesDecoded,
	}
}

// Publish adds this stats snapshot (typically a Delta) into the registry as
// rfabric_fabric_* counters.
func (s Stats) Publish(reg *obs.Registry, labels obs.LabelSet) {
	if reg == nil {
		return
	}
	reg.CounterOf("rfabric_fabric_rows_scanned_total", labels).Add(s.RowsScanned)
	reg.CounterOf("rfabric_fabric_rows_shipped_total", labels).Add(s.RowsShipped)
	reg.CounterOf("rfabric_fabric_bytes_shipped_total", labels).Add(s.BytesShipped)
	reg.CounterOf("rfabric_fabric_lines_shipped_total", labels).Add(s.LinesShipped)
	reg.CounterOf("rfabric_fabric_bytes_gathered_total", labels).Add(s.BytesGathered)
	reg.CounterOf("rfabric_fabric_gather_cycles_total", labels).Add(s.GatherCycles)
	reg.CounterOf("rfabric_fabric_compute_cycles_total", labels).Add(s.ComputeCycles)
	reg.CounterOf("rfabric_fabric_chunks_total", labels).Add(s.Chunks)
	reg.CounterOf("rfabric_fabric_aggregates_total", labels).Add(s.Aggregates)
	reg.CounterOf("rfabric_fabric_rows_semi_filtered_total", labels).Add(s.RowsSemiFiltered)
	reg.CounterOf("rfabric_fabric_rows_code_filtered_total", labels).Add(s.RowsCodeFiltered)
	reg.CounterOf("rfabric_fabric_entries_decoded_total", labels).Add(s.EntriesDecoded)
}

// Publish adds this group-cache snapshot (typically a Delta) into the
// registry: rfabric_groupcache_* counters for the cache's traffic plus
// occupancy gauges for resident bytes and entries.
func (s GroupCacheStats) Publish(reg *obs.Registry, labels obs.LabelSet) {
	if reg == nil {
		return
	}
	reg.CounterOf("rfabric_groupcache_hits_total", labels).Add(s.Hits)
	reg.CounterOf("rfabric_groupcache_misses_total", labels).Add(s.Misses)
	reg.CounterOf("rfabric_groupcache_installs_total", labels).Add(s.Installs)
	reg.CounterOf("rfabric_groupcache_evictions_total", labels).Add(s.Evictions)
	reg.CounterOf("rfabric_groupcache_invalidations_total", labels).Add(s.Invalidations)
	reg.GaugeOf("rfabric_groupcache_bytes", labels).Set(float64(s.BytesCached))
	reg.GaugeOf("rfabric_groupcache_entries", labels).Set(float64(s.Entries))
}
