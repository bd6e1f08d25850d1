package engine

import (
	"errors"
	"fmt"
	"sort"

	"rfabric/internal/colstore"
	"rfabric/internal/expr"
	"rfabric/internal/fabric"
	"rfabric/internal/geometry"
	"rfabric/internal/index"
	"rfabric/internal/plan"
	"rfabric/internal/table"
)

// The paper argues Relational Fabric turns query optimization from a
// combinatorial search over materialized layouts into *construction*: since
// any geometry is available on demand, the optimizer merely prices the
// access paths and takes the cheapest (§III-B "instead of solving a
// combinatorial problem, we can now construct the fastest solution"). This
// file implements that constructive optimizer: closed-form cost formulas
// derived from the performance model, evaluated without executing anything.

// Plan is the optimizer's decision.
type Plan struct {
	Chosen    string
	Estimates []plan.Est // sorted by predicted cycles, available paths first
}

// estimateSelectivity applies the classic textbook heuristics: equality
// selects 10 %, a range predicate a third, conjuncts multiply, floored so a
// plan never assumes a free scan.
func estimateSelectivity(q Query) float64 {
	sel := 1.0
	for _, p := range q.Selection {
		switch p.Op {
		case expr.Eq:
			sel *= 0.1
		case expr.Ne:
			sel *= 0.9
		default: // range comparisons
			sel *= 1.0 / 3.0
		}
	}
	if sel < 0.005 {
		sel = 0.005
	}
	return sel
}

// consumeCostPerRow prices the consumer work shared by every engine:
// checksum folding or aggregation, including group hashing.
func consumeCostPerRow(q Query) float64 {
	if len(q.Aggregates) == 0 {
		return float64(len(q.Projection) * ChecksumCycles)
	}
	c := 0.0
	if len(q.GroupBy) > 0 {
		c += HashGroupCycles
	}
	for _, a := range q.Aggregates {
		c += AggAddCycles
		if a.Arg != nil {
			c += float64(a.Arg.Ops() * ScalarOpCycles)
		}
	}
	return c
}

// Optimizer prices access paths for one table on one system configuration.
type Optimizer struct {
	Tbl *table.Table
	Sys *System
	// Store is the columnar copy, if one happens to exist.
	Store *colstore.Store
	// Index is a B+tree over one of the table's columns, if one exists.
	Index *index.BTree
	// SelOverride, when positive, replaces the textbook selectivity
	// heuristics with an observed value — the feedback hook the optimizer
	// audit uses to ask "what would you have chosen knowing the real
	// selectivity?". Zero means use the heuristics.
	SelOverride float64
	// Cache, when set, lets the RM formula price a resident column group
	// as warm: the producer streams packed bytes out of the persistent
	// buffer instead of gathering from DRAM. Nil always prices cold.
	Cache *fabric.GroupCache
	// Offload, when set, prices RM's operator-offload path for queries whose
	// aggregation shape the fabric can run (offloadProgram): the consumer
	// collapses to reading the reduced result. The same Source-contract
	// predicate gates execution, so pricing and dispatch cannot disagree.
	Offload bool
}

// selectivity returns the selectivity this optimizer plans with: the
// observed override when one is set, the textbook heuristics otherwise.
func (o *Optimizer) selectivity(q Query) float64 {
	if o.SelOverride > 0 {
		return o.SelOverride
	}
	return estimateSelectivity(q)
}

// Choose prices every path and returns the constructed plan.
func (o *Optimizer) Choose(q Query) (*Plan, error) {
	if o.Tbl == nil || o.Sys == nil {
		return nil, errors.New("engine: optimizer needs a table and a system")
	}
	if err := q.Validate(o.Tbl.Schema()); err != nil {
		return nil, err
	}
	ests := make([]plan.Est, 0, 4)
	for _, path := range [...]string{"ROW", "COL", "RM", "IDX"} {
		ests = append(ests, o.estimate(path, q))
	}
	sort.Slice(ests, func(i, j int) bool {
		if ests[i].Available != ests[j].Available {
			return ests[i].Available
		}
		return ests[i].Cycles < ests[j].Cycles
	})
	if !ests[0].Available {
		return nil, errors.New("engine: no access path available")
	}
	return &Plan{Chosen: ests[0].Engine, Estimates: ests}, nil
}

// EstimateFor prices one specific access path — the counterpart of Choose
// for runs where the caller (not the optimizer) picked the engine, so
// EXPLAIN ANALYZE and the statement store can still report estimated-vs-
// actual for ROW/COL/RM/IDX/PAR runs. PAR prices with the RM formulas: the
// optimizer prices the access path (where the bytes come from), not the
// parallel schedule, so PAR's q-error exposes exactly the speedup the
// morsel executor achieves over the single-stream model. AUTO returns the
// cheapest path, as Choose would.
func (o *Optimizer) EstimateFor(engine string, q Query) (plan.Est, bool) {
	if o.Tbl == nil || o.Sys == nil {
		return plan.Est{}, false
	}
	if err := q.Validate(o.Tbl.Schema()); err != nil {
		return plan.Est{}, false
	}
	if engine == "AUTO" {
		p, err := o.Choose(q)
		if err != nil {
			return plan.Est{}, false
		}
		return p.Estimates[0], true
	}
	e := o.estimate(engine, q)
	return e, e.Available
}

// estimate prices one access path for q and records the input cardinality
// the pricing saw. PAR prices as RM under its own name.
func (o *Optimizer) estimate(engine string, q Query) plan.Est {
	var e plan.Est
	switch engine {
	case "ROW":
		e = o.estimateROW(q)
	case "COL":
		e = o.estimateCOL(q)
	case "RM", "PAR":
		e = o.estimateRM(q)
		e.Engine = engine
	case "IDX":
		e = o.estimateIDX(q)
	default:
		return plan.Est{Engine: engine, Reason: "the optimizer does not price this path"}
	}
	e.Rows = float64(o.Tbl.NumRows())
	return e
}

func (o *Optimizer) estimateROW(q Query) plan.Est {
	cfg := o.Sys.Cfg
	n := float64(o.Tbl.NumRows())
	sel := o.selectivity(q)
	lineBytes := float64(cfg.Cache.L1.LineBytes)
	rowStride := float64(o.Tbl.RowStride())

	// CPU: volcano overhead, predicate evaluation, per-column extraction on
	// survivors, consumption.
	cpu := n * VolcanoNextCycles
	cpu += n * float64(len(q.Selection)) * (PredEvalCycles + ExtractCycles + float64(cfg.Cache.L1.HitCycles))
	consumed := float64(len(q.consumedColumns()))
	cpu += n * sel * consumed * (ExtractCycles + float64(cfg.Cache.L1.HitCycles))
	cpu += n * sel * consumeCostPerRow(q)
	if o.Tbl.HasMVCC() {
		cpu += n * TSCheckSoftwareCycles
	}

	// Memory: the scan streams the whole heap; the prefetcher covers the
	// single stream, so line transitions cost ~an L2 hit.
	linesPerRow := rowStride / lineBytes
	mem := n * linesPerRow * float64(cfg.Cache.L2.HitCycles)

	floor := n * rowStride / cfg.DRAM.BandwidthBytesPerCycle
	return plan.Est{Engine: "ROW", Cycles: max(cpu+mem, floor), Selectivity: sel, Available: true}
}

func (o *Optimizer) estimateCOL(q Query) plan.Est {
	if o.Store == nil {
		return plan.Est{Engine: "COL", Available: false,
			Reason: "no columnar copy exists (the duplication Relational Fabric removes)"}
	}
	if q.Snapshot != nil {
		return plan.Est{Engine: "COL", Available: false, Reason: "columnar copy has no version history"}
	}
	sch := o.Store.Schema()
	cfg := o.Sys.Cfg
	n := float64(o.Store.NumRows())
	sel := o.selectivity(q)
	lineBytes := float64(cfg.Cache.L1.LineBytes)

	// Selection: full-column passes with bitmap intermediates.
	cpu := 0.0
	var bytesTouched float64
	for i, p := range q.Selection {
		w := float64(sch.Column(p.Col).Width)
		cpu += n * (VectorOpCycles + MaterializeCycles + float64(cfg.Cache.L1.HitCycles))
		cpu += n * (w / lineBytes) * float64(cfg.Cache.L2.HitCycles) // prefetched stream
		bytesTouched += n * w
		if i > 0 {
			cpu += n * float64(cfg.Cache.L1.HitCycles) // bitmap read-modify-write
		}
	}

	// Reconstruction: row-major gather across consumed arrays on survivors.
	consumed := q.consumedColumns()
	streams := len(consumed)
	perLine := float64(cfg.Cache.L2.HitCycles) // covered by prefetch
	if streams > cfg.Cache.Prefetch.Streams {
		perLine = float64(cfg.Cache.OverlapMissCycles + cfg.Cache.L2.HitCycles)
	}
	for _, c := range consumed {
		w := float64(sch.Column(c).Width)
		cpu += n * sel * (VectorOpCycles + float64(cfg.Cache.L1.HitCycles))
		cpu += n * sel * (w / lineBytes) * perLine
		bytesTouched += n * sel * w
	}
	cpu += n * sel * consumeCostPerRow(q)

	floor := bytesTouched / cfg.DRAM.BandwidthBytesPerCycle
	return plan.Est{Engine: "COL", Cycles: max(cpu, floor), Selectivity: sel, Available: true}
}

func (o *Optimizer) estimateRM(q Query) plan.Est {
	sch := o.Tbl.Schema()
	cfg := o.Sys.Cfg
	n := float64(o.Tbl.NumRows())
	sel := o.selectivity(q)
	lineBytes := float64(cfg.Cache.L1.LineBytes)

	cols := q.NeededColumns()
	if len(cols) == 0 {
		q, cols = countOverNarrowest(q, sch)
	}
	geom, err := geometry.NewGeometry(sch, cols...)
	if err != nil {
		return plan.Est{Engine: "RM", Available: false, Reason: err.Error()}
	}
	_, gatherBytes := fabric.GatherProgram(o.Tbl, geom.Columns(), cfg.DRAM.BurstBytes)
	gatherPerRow := float64(gatherBytes)

	// Producer: datapath row/beat rate plus refill handshakes, floored by
	// fabric-port bandwidth.
	ratio := float64(cfg.Fabric.ClockRatio)
	rowRate := n / float64(cfg.Fabric.RowsPerCycle) * ratio
	beatRate := n * gatherPerRow / float64(cfg.Fabric.BeatBytes) * ratio
	producer := max(rowRate, beatRate)
	packed := float64(geom.PackedWidth())
	chunks := n * packed / float64(cfg.Fabric.BufferBytes)
	producer += (chunks + 1) * float64(cfg.Fabric.RefillCycles)
	fabricFloor := n * gatherPerRow / (cfg.DRAM.BandwidthBytesPerCycle * float64(cfg.DRAM.FabricPorts))

	// Offloaded scans ship no column group, so they bypass the cache both
	// here and in dispatch.
	offloaded := false
	if o.Offload {
		_, offloaded = offloadProgram(q)
	}

	// Warm pricing: with the group resident, the producer replays already
	// packed bytes across the datapath at beat rate plus one refill
	// handshake per cached chunk — no DRAM gathers, no row-rate packing,
	// no fabric-port bandwidth floor. The DB's RM path never pushes
	// selection, so the probe keys on projection geometry alone.
	warm := false
	if o.Cache != nil && !offloaded {
		if info, ok := o.Cache.Peek(o.Tbl, geom, q.Snapshot, nil); ok {
			warm = true
			producer = float64(info.Bytes)/float64(cfg.Fabric.BeatBytes)*ratio +
				float64(info.Chunks)*float64(cfg.Fabric.RefillCycles)
			fabricFloor = 0
		}
	}

	// Consumer: vectorized over packed rows; selection short-circuits on
	// the first failing predicate (assume ~1.3 evaluated on average when
	// selective), survivors consume.
	evalPerRow := float64(len(q.Selection))
	if evalPerRow > 1 && sel < 0.5 {
		evalPerRow = 1.3
	}
	consumer := n * evalPerRow * (2*VectorOpCycles + float64(cfg.Cache.L1.HitCycles))
	consumer += n * sel * float64(len(q.consumedColumns())) * (VectorOpCycles + float64(cfg.Cache.L1.HitCycles))
	consumer += n * sel * consumeCostPerRow(q)
	consumer += n * packed / lineBytes * float64(cfg.Cache.L2.HitCycles+cfg.Cache.FabricHitCycles)

	// Offload pricing: selection and the whole fold run fabric-side; the
	// grouping datapath serializes at AggregateCycles per qualifying row,
	// and the CPU only reads the reduced result — the packed-line shipping
	// term (bytes-to-CPU) disappears entirely.
	if offloaded {
		if len(q.GroupBy) > 0 {
			producer += n * sel * float64(cfg.Fabric.AggregateCycles) * ratio
		}
		consumer = float64(len(q.GroupBy)+len(q.Aggregates)) * float64(cfg.Cache.L1.HitCycles)
	}

	cycles := max(producer, consumer, fabricFloor)
	return plan.Est{Engine: "RM", Cycles: cycles, Selectivity: sel, Available: true, Warm: warm, Offloaded: offloaded}
}

// String renders the plan for diagnostics.
func (p *Plan) String() string {
	s := "plan: " + p.Chosen
	for _, e := range p.Estimates {
		if e.Available {
			s += fmt.Sprintf(" | %s≈%.0f sel=%.3f", e.Engine, e.Cycles, e.Selectivity)
			if e.Warm {
				s += " warm"
			}
			if e.Offloaded {
				s += " offload"
			}
		} else {
			s += fmt.Sprintf(" | %s(unavailable)", e.Engine)
		}
	}
	return s
}
