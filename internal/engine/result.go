package engine

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"rfabric/internal/geometry"
	"rfabric/internal/table"
)

// Breakdown is the modeled cost of one query execution.
type Breakdown struct {
	// ComputeCycles is the CPU work charged by the engine's loops.
	ComputeCycles uint64
	// MemDemandCycles is the latency the cache hierarchy exposed to the CPU.
	MemDemandCycles uint64
	// ProducerCycles is fabric-side production time (RM engine only).
	ProducerCycles uint64
	// BytesFromDRAM is all data the run moved out of memory (demand,
	// prefetch, and fabric gathers).
	BytesFromDRAM uint64
	// BytesToCPU is the data that crossed into the cache hierarchy:
	// demand/prefetch lines for ROW and COL, packed fabric lines for RM.
	BytesToCPU uint64
	// PipelineCycles is the producer/consumer pipeline total before the
	// bandwidth floor (RM and PAR paths only; zero on demand paths). It is
	// what trace spans attribute as "pipeline", with TotalCycles -
	// PipelineCycles left as the bandwidth stall.
	PipelineCycles uint64
	// TotalCycles is the modeled execution time: the CPU path and producer
	// pipeline combined, floored by DRAM bandwidth occupancy.
	TotalCycles uint64
}

// CPUCycles returns the demand-path total (compute + exposed memory).
func (b Breakdown) CPUCycles() uint64 { return b.ComputeCycles + b.MemDemandCycles }

// GroupRow is one output row of a grouped aggregation.
type GroupRow struct {
	Key   []table.Value
	Aggs  []table.Value
	Count int64
}

// Result is the outcome of one query execution.
type Result struct {
	Engine      string
	RowsScanned int64
	RowsPassed  int64
	// Checksum is the order-insensitive fold of every consumed projected
	// value (projection scans only). Engines producing the same logical
	// result produce the same checksum.
	Checksum uint64
	// Aggs holds scalar aggregation results (no GROUP BY).
	Aggs []table.Value
	// Groups holds grouped results sorted by key.
	Groups    []GroupRow
	Breakdown Breakdown
	// CacheWarm reports that the run consumed a resident column group out
	// of the fabric group cache instead of gathering from DRAM (RM engine
	// with a GroupCache attached only). The logical result is identical
	// either way; only the modeled cost differs.
	CacheWarm bool
	// Offload names the fabric operator program this run pushed near memory
	// ("agg", "group-agg", "semi-join", "dict-scan", or combinations); empty
	// when every operator ran CPU-side. The logical result is identical
	// either way; only where the work was charged differs.
	Offload string
	// Morsels is how many morsels a PAR run split its scan into (zero on
	// the serial paths; a sharded table's run counts the shards it
	// touched), and MorselHW the counters of PAR's private System clones
	// summed in morsel order: hardware traffic the shared System never
	// sees. On one morsel's partial, MorselHW is that clone's.
	Morsels  int
	MorselHW HWStats
}

// EquivalentTo reports whether two results agree logically: same pass
// counts, checksums, aggregates (within eps for floats), and groups.
func (r *Result) EquivalentTo(o *Result, eps float64) error {
	if r.RowsPassed != o.RowsPassed {
		return fmt.Errorf("rows passed: %d vs %d", r.RowsPassed, o.RowsPassed)
	}
	if r.Checksum != o.Checksum {
		return fmt.Errorf("checksum: %#x vs %#x", r.Checksum, o.Checksum)
	}
	if len(r.Aggs) != len(o.Aggs) {
		return fmt.Errorf("aggregate count: %d vs %d", len(r.Aggs), len(o.Aggs))
	}
	for i := range r.Aggs {
		if err := valuesClose(r.Aggs[i], o.Aggs[i], eps); err != nil {
			return fmt.Errorf("aggregate %d: %w", i, err)
		}
	}
	if len(r.Groups) != len(o.Groups) {
		return fmt.Errorf("group count: %d vs %d", len(r.Groups), len(o.Groups))
	}
	for g := range r.Groups {
		a, b := r.Groups[g], o.Groups[g]
		if a.Count != b.Count {
			return fmt.Errorf("group %d count: %d vs %d", g, a.Count, b.Count)
		}
		for i := range a.Key {
			if !a.Key[i].Equal(b.Key[i]) {
				return fmt.Errorf("group %d key %d: %s vs %s", g, i, a.Key[i], b.Key[i])
			}
		}
		for i := range a.Aggs {
			if err := valuesClose(a.Aggs[i], b.Aggs[i], eps); err != nil {
				return fmt.Errorf("group %d aggregate %d: %w", g, i, err)
			}
		}
	}
	return nil
}

func valuesClose(a, b table.Value, eps float64) error {
	if a.Type != b.Type {
		return fmt.Errorf("type %s vs %s", a.Type, b.Type)
	}
	switch {
	case a.Equal(b):
		return nil
	case eps > 0:
		av, bv := a.Float, b.Float
		if a.Type != b.Type {
			return fmt.Errorf("type %s vs %s", a.Type, b.Type)
		}
		if av == 0 && bv == 0 {
			return nil
		}
		if math.Abs(av-bv) <= eps*math.Max(math.Abs(av), math.Abs(bv)) {
			return nil
		}
	}
	return fmt.Errorf("%s vs %s", a, b)
}

// String renders a compact summary.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: scanned=%d passed=%d cycles=%d", r.Engine, r.RowsScanned, r.RowsPassed, r.Breakdown.TotalCycles)
	if len(r.Aggs) > 0 {
		parts := make([]string, len(r.Aggs))
		for i, v := range r.Aggs {
			parts[i] = v.String()
		}
		fmt.Fprintf(&b, " aggs=[%s]", strings.Join(parts, ", "))
	}
	if len(r.Groups) > 0 {
		fmt.Fprintf(&b, " groups=%d", len(r.Groups))
	}
	return b.String()
}

// sortGroups orders grouped output by key so every engine emits the same
// order, whatever order the groups were produced in. Value.Compare calls
// -0 and +0 equal and NaN equal to anything, yet those keys are distinct
// groups, so DOUBLE keys compare by cmp.Compare (NaN first, consistently)
// and ties fall back to the group-key encoding: a strict total order.
func sortGroups(groups []GroupRow) {
	slices.SortFunc(groups, func(a, b GroupRow) int {
		for k := range a.Key {
			x, y := a.Key[k], b.Key[k]
			c := 0
			if x.Type == geometry.Float64 {
				c = cmp.Compare(x.Float, y.Float)
			} else {
				c = x.Compare(y)
			}
			if c != 0 {
				return c
			}
		}
		return bytes.Compare(groupMergeKey(a.Key), groupMergeKey(b.Key))
	})
}
