package experiments

import (
	"fmt"
	"io"
	"strings"

	"rfabric/internal/engine"
	"rfabric/internal/fabric"
	"rfabric/internal/sql"
	"rfabric/internal/table"
	"rfabric/internal/tpch"
)

// sequenceCacheBytes is the group-cache capacity for the sequence
// experiment — comfortably larger than the lineitem and orders groups
// together so eviction never muddies the warm/cold comparison.
const sequenceCacheBytes = 64 << 20

// SequenceStep is one query of the shifting-predicate sequence: the same
// scan shape (same needed columns, hence the same column group) with the
// ship-date window slid forward each step.
type SequenceStep struct {
	Step       int    `json:"step"`
	Window     string `json:"window"` // shifting l_shipdate range, for the table
	ColdCycles uint64 `json:"cold_cycles"`
	WarmCycles uint64 `json:"warm_cycles"`
	Warm       bool   `json:"warm"` // cached run replayed a resident group
	RowsPassed int64  `json:"rows_passed"`
}

// SequenceResult is the sequence-aware caching experiment: a run of
// same-shaped scans with shifting predicates plus a Q3-class join, each
// executed cold (per-query ephemeral groups, the paper's behaviour) and
// against a persistent group cache. Results must match byte-for-byte; only
// the modeled producer cycles differ, because a warm group replays out of
// the delivery buffer instead of re-gathering strides from DRAM.
type SequenceResult struct {
	Rows            int            `json:"rows"`
	OrdersRows      int            `json:"orders_rows"`
	Steps           []SequenceStep `json:"steps"`
	ColdTotalCycles uint64         `json:"cold_total_cycles"`
	WarmTotalCycles uint64         `json:"warm_total_cycles"`
	JoinColdCycles  uint64         `json:"join_cold_cycles"`
	JoinWarmCycles  uint64         `json:"join_warm_cycles"`
	// The Q3-class join is consumer-bound under the scalar join pipeline, so
	// its end-to-end cycles tie; the warm win is on the producer side — no
	// DRAM gathers, chunks replayed out of the delivery buffer.
	JoinColdProducerCycles uint64 `json:"join_cold_producer_cycles"`
	JoinWarmProducerCycles uint64 `json:"join_warm_producer_cycles"`
	JoinColdDRAMBytes      uint64 `json:"join_cold_dram_bytes"`
	JoinWarmDRAMBytes      uint64 `json:"join_warm_dram_bytes"`
	JoinSources            int    `json:"join_sources"` // probe + build sides
	GroupHits              uint64 `json:"group_hits"`
	GroupMisses            uint64 `json:"group_misses"`
	CachedBytes            uint64 `json:"cached_bytes"`
}

// sequenceSQL is Q6 with its one-year ship-date window opening on day lo.
// The needed columns never change, so every step addresses the same column
// group; only the CPU-evaluated constants move.
func sequenceSQL(lo int32) string {
	return strings.NewReplacer(
		"'1994-01-01'", "'"+sql.FormatDate(lo)+"'",
		"'1995-01-01'", "'"+sql.FormatDate(lo+365)+"'",
	).Replace(tpch.Q6SQL)
}

// Sequence runs the sequence-aware caching experiment: steps same-shaped
// Q6-class scans with shifting predicates over lineitem, then the Q3-class
// lineitem ⋈ orders join, comparing a cold RM engine against one backed by
// a persistent group cache on the same simulated system.
func Sequence(opt Options, rows, steps int) (*SequenceResult, error) {
	if steps < 2 {
		steps = 2
	}
	l, err := tpchLab(opt, rows)
	if err != nil {
		return nil, err
	}
	cache := fabric.NewGroupCache(sequenceCacheBytes, l.sys.Arena)
	cached := func(t *table.Table) engine.Source {
		return &engine.RMEngine{Tbl: t, Sys: l.sys, Cache: cache}
	}

	res := &SequenceResult{Rows: rows, OrdersRows: tpch.OrdersFor(rows)}
	for k := 0; k < steps; k++ {
		lo := int32(tpch.Date1994 + k*30) // slid forward a month per step
		root, err := l.lower(sequenceSQL(lo))
		if err != nil {
			return nil, err
		}
		cr, err := l.run(root, l.rm)
		if err != nil {
			return nil, fmt.Errorf("sequence step %d cold: %w", k, err)
		}
		wr, err := l.run(root, cached)
		if err != nil {
			return nil, fmt.Errorf("sequence step %d warm: %w", k, err)
		}
		if err := wr.EquivalentTo(cr, 1e-9); err != nil {
			return nil, fmt.Errorf("sequence step %d warm diverged from cold: %w", k, err)
		}
		res.Steps = append(res.Steps, SequenceStep{
			Step:       k,
			Window:     fmt.Sprintf("[%d,%d)", lo, lo+365),
			ColdCycles: cr.Breakdown.TotalCycles,
			WarmCycles: wr.Breakdown.TotalCycles,
			Warm:       wr.CacheWarm,
			RowsPassed: wr.RowsPassed,
		})
		res.ColdTotalCycles += cr.Breakdown.TotalCycles
		res.WarmTotalCycles += wr.Breakdown.TotalCycles
	}

	// Q3-class join: the first cached run installs both sides' groups (its
	// modeled cost equals the uncached run — recording charges nothing), the
	// second replays them warm.
	root, err := l.lower(tpch.Q3SQL)
	if err != nil {
		return nil, err
	}
	res.JoinSources = 1 + len(root.Joins())
	jc, err := l.run(root, cached)
	if err != nil {
		return nil, fmt.Errorf("sequence join cold: %w", err)
	}
	jw, err := l.run(root, cached)
	if err != nil {
		return nil, fmt.Errorf("sequence join warm: %w", err)
	}
	if err := jw.EquivalentTo(jc, 1e-9); err != nil {
		return nil, fmt.Errorf("sequence join warm diverged from cold: %w", err)
	}
	res.JoinColdCycles = jc.Breakdown.TotalCycles
	res.JoinWarmCycles = jw.Breakdown.TotalCycles
	res.JoinColdProducerCycles = jc.Breakdown.ProducerCycles
	res.JoinWarmProducerCycles = jw.Breakdown.ProducerCycles
	res.JoinColdDRAMBytes = jc.Breakdown.BytesFromDRAM
	res.JoinWarmDRAMBytes = jw.Breakdown.BytesFromDRAM

	st := cache.Stats()
	res.GroupHits = st.Hits
	res.GroupMisses = st.Misses
	res.CachedBytes = st.BytesCached
	return res, nil
}

// WriteTable renders the sequence.
func (r *SequenceResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Sequence-aware caching — %d lineitem rows, shifting ship-date scans + Q3-class join\n", r.Rows)
	fmt.Fprintf(w, "%-6s %-16s %14s %14s %8s %10s\n", "step", "window", "cold(cyc)", "warm(cyc)", "warm?", "passed")
	for _, s := range r.Steps {
		mark := "miss"
		if s.Warm {
			mark = "hit"
		}
		fmt.Fprintf(w, "%-6d %-16s %14d %14d %8s %10d\n",
			s.Step, s.Window, s.ColdCycles, s.WarmCycles, mark, s.RowsPassed)
	}
	fmt.Fprintf(w, "%-23s %14d %14d %8.2fx\n", "scan totals",
		r.ColdTotalCycles, r.WarmTotalCycles, ratio(r.ColdTotalCycles, r.WarmTotalCycles))
	fmt.Fprintf(w, "%-23s %14d %14d %8.2fx\n", "Q3-class join",
		r.JoinColdCycles, r.JoinWarmCycles, ratio(r.JoinColdCycles, r.JoinWarmCycles))
	fmt.Fprintf(w, "%-23s %14d %14d %8.2fx\n", "  join producer",
		r.JoinColdProducerCycles, r.JoinWarmProducerCycles, ratio(r.JoinColdProducerCycles, r.JoinWarmProducerCycles))
	fmt.Fprintf(w, "%-23s %14d %14d %8.2fx\n", "  join DRAM bytes",
		r.JoinColdDRAMBytes, r.JoinWarmDRAMBytes, ratio(r.JoinColdDRAMBytes, r.JoinWarmDRAMBytes))
	fmt.Fprintf(w, "group cache: %d hits, %d misses, %s resident\n",
		r.GroupHits, r.GroupMisses, fmtMB(int(r.CachedBytes)))
}

func ratio(cold, warm uint64) float64 {
	if warm == 0 {
		return 0
	}
	return float64(cold) / float64(warm)
}

// CheckShape verifies the caching claims: the first cached run costs exactly
// the cold run (recording is free in the model), every later step replays
// warm and beats cold, totals and the join follow, and the cache counters
// account for every lookup.
func (r *SequenceResult) CheckShape() []string {
	var bad []string
	for i, s := range r.Steps {
		if i == 0 {
			if s.Warm {
				bad = append(bad, "sequence: step 0 claimed a warm hit against an empty cache")
			}
			if s.WarmCycles != s.ColdCycles {
				bad = append(bad, fmt.Sprintf("sequence: step 0 miss cost %d cycles, cold cost %d — recording must be free", s.WarmCycles, s.ColdCycles))
			}
			continue
		}
		if !s.Warm {
			bad = append(bad, fmt.Sprintf("sequence: step %d did not replay the cached group", s.Step))
		}
		if s.WarmCycles >= s.ColdCycles {
			bad = append(bad, fmt.Sprintf("sequence: step %d warm (%d) not cheaper than cold (%d)", s.Step, s.WarmCycles, s.ColdCycles))
		}
	}
	if r.WarmTotalCycles >= r.ColdTotalCycles {
		bad = append(bad, fmt.Sprintf("sequence: warm total %d not below cold total %d", r.WarmTotalCycles, r.ColdTotalCycles))
	}
	if r.JoinWarmCycles > r.JoinColdCycles {
		bad = append(bad, fmt.Sprintf("sequence: warm join (%d) costlier than cold join (%d)", r.JoinWarmCycles, r.JoinColdCycles))
	}
	if r.JoinWarmProducerCycles >= r.JoinColdProducerCycles {
		bad = append(bad, fmt.Sprintf("sequence: warm join producer (%d) not cheaper than cold (%d)", r.JoinWarmProducerCycles, r.JoinColdProducerCycles))
	}
	if r.JoinWarmDRAMBytes >= r.JoinColdDRAMBytes {
		bad = append(bad, fmt.Sprintf("sequence: warm join moved %d DRAM bytes, cold moved %d — replay must not re-gather", r.JoinWarmDRAMBytes, r.JoinColdDRAMBytes))
	}
	wantHits := uint64(len(r.Steps)-1) + uint64(r.JoinSources)
	wantMisses := uint64(1 + r.JoinSources)
	if r.GroupHits != wantHits || r.GroupMisses != wantMisses {
		bad = append(bad, fmt.Sprintf("sequence: cache saw %d hits / %d misses, want %d / %d",
			r.GroupHits, r.GroupMisses, wantHits, wantMisses))
	}
	return bad
}
