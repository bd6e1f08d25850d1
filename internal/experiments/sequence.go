package experiments

import (
	"fmt"
	"io"

	"rfabric/internal/engine"
	"rfabric/internal/expr"
	"rfabric/internal/fabric"
	"rfabric/internal/geometry"
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

// sequenceQuery is the Q6-class scan with its ship-date window slid forward
// by step months. The needed columns never change, so every step addresses
// the same column group; only the CPU-evaluated constants move.
func sequenceQuery(step int) engine.Query {
	lo := int32(tpch.Date1994 + step*30)
	hi := lo + 365
	return engine.Query{
		Selection: expr.Conjunction{
			{Col: tpch.LShipDate, Op: expr.Ge, Operand: table.DateV(lo)},
			{Col: tpch.LShipDate, Op: expr.Lt, Operand: table.DateV(hi)},
			{Col: tpch.LDiscount, Op: expr.Ge, Operand: table.F64(0.049)},
			{Col: tpch.LDiscount, Op: expr.Le, Operand: table.F64(0.071)},
			{Col: tpch.LQuantity, Op: expr.Lt, Operand: table.F64(24)},
		},
		Aggregates: []engine.AggTerm{
			{Kind: expr.Sum, Arg: expr.Binary{Op: expr.Mul, L: expr.ColRef{Col: tpch.LExtendedPrice}, R: expr.ColRef{Col: tpch.LDiscount}}},
		},
	}
}

// Sequence runs the sequence-aware caching experiment: steps same-shaped
// Q6-class scans with shifting predicates over lineitem, then the Q3-class
// lineitem ⋈ orders join, comparing a cold RM engine against one backed by
// a persistent group cache on the same simulated system.
func Sequence(opt Options, rows, steps int) (*SequenceResult, error) {
	if steps < 2 {
		steps = 2
	}
	sys, err := engine.NewSystem(opt.System)
	if err != nil {
		return nil, err
	}
	mk := func(name string, n int, gen func(*table.Table, int, int64) error, seed int64) (*table.Table, error) {
		var sch = tpch.LineitemSchema()
		if name == "orders" {
			sch = tpch.OrdersSchema()
		}
		tbl, err := table.New(name, sch,
			table.WithCapacity(n),
			table.WithBaseAddr(sys.Arena.Alloc(int64(n*sch.RowBytes()))))
		if err != nil {
			return nil, err
		}
		return tbl, gen(tbl, n, seed)
	}
	li, err := mk("lineitem", rows, tpch.Generate, opt.Seed)
	if err != nil {
		return nil, err
	}
	nOrders := tpch.OrdersFor(rows)
	ord, err := mk("orders", nOrders, tpch.GenerateOrders, opt.Seed+1)
	if err != nil {
		return nil, err
	}

	cache := fabric.NewGroupCache(sequenceCacheBytes, sys.Arena)
	cold := &engine.RMEngine{Tbl: li, Sys: sys}
	warm := &engine.RMEngine{Tbl: li, Sys: sys, Cache: cache}

	res := &SequenceResult{Rows: rows, OrdersRows: nOrders}
	for k := 0; k < steps; k++ {
		q := sequenceQuery(k)
		sys.ResetState()
		cr, err := cold.Execute(q)
		if err != nil {
			return nil, fmt.Errorf("sequence step %d cold: %w", k, err)
		}
		sys.ResetState()
		wr, err := warm.Execute(q)
		if err != nil {
			return nil, fmt.Errorf("sequence step %d warm: %w", k, err)
		}
		if err := wr.EquivalentTo(cr, 1e-9); err != nil {
			return nil, fmt.Errorf("sequence step %d warm diverged from cold: %w", k, err)
		}
		lo := tpch.Date1994 + k*30
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
	jp, err := sequenceJoinPlan(li, ord)
	if err != nil {
		return nil, err
	}
	byName := func(name string) *table.Table {
		if name == "orders" {
			return ord
		}
		return li
	}
	cachedSrc := func(t *table.Table) engine.Source {
		return &engine.RMEngine{Tbl: t, Sys: sys, Cache: cache}
	}
	res.JoinSources = 1 + len(jp.Stages)
	runJoin := func() (*engine.Result, error) {
		sys.ResetState()
		return (&engine.JoinExec{
			Plan:   jp,
			Probe:  cachedSrc(byName(jp.Probe.Table)),
			Builds: buildSources(jp, byName, cachedSrc),
		}).Execute()
	}
	jc, err := runJoin()
	if err != nil {
		return nil, fmt.Errorf("sequence join cold: %w", err)
	}
	jw, err := runJoin()
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

// sequenceJoinPlan lowers tpch.Q3SQL against the two placed tables.
func sequenceJoinPlan(li, ord *table.Table) (*engine.JoinPlan, error) {
	lookup := func(name string) (*geometry.Schema, error) {
		switch name {
		case "lineitem":
			return li.Schema(), nil
		case "orders":
			return ord.Schema(), nil
		}
		return nil, fmt.Errorf("sequence experiment: unknown table %q", name)
	}
	st, err := sql.Parse(tpch.Q3SQL)
	if err != nil {
		return nil, err
	}
	root, err := sql.LowerCatalog(st, lookup)
	if err != nil {
		return nil, err
	}
	jp, _, err := engine.FromJoinPlan(root, lookup)
	if err != nil {
		return nil, err
	}
	return jp, nil
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
