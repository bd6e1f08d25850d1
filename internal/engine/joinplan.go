package engine

import (
	"errors"
	"fmt"
	"slices"
	"strconv"

	"rfabric/internal/expr"
	"rfabric/internal/fabric"
	"rfabric/internal/geometry"
	"rfabric/internal/obs"
	"rfabric/internal/plan"
	"rfabric/internal/table"
)

// Join execution over the shared pipeline. A plan.Node join tree lowers to
// a JoinPlan: one probe side plus a list of build stages, each side a full
// Source-backed subplan with its own selection, snapshot, and needed
// columns. Execution streams every side through the shared pipeline with a
// sink in place of the consumer (joinsink.go) — build rows into per-stage
// columnar hash tables, probe rows through a multi-stage probe that folds
// matched combined rows straight into the consumption — so every build and
// probe byte flows through Hier.Load, each phase closes its own span, and
// the run's root span reconciles exactly with the summed
// Breakdown.TotalCycles.

// JoinSide is one input of a join: the table it reads, the side-local
// query the pipeline executes over it (projection = every column the join
// fetches from this side, selection = the side's pushed-down predicates),
// and the side's Scan node for source stamping and EXPLAIN.
type JoinSide struct {
	Table string
	Query Query
	Node  *plan.Node
}

// JoinStage is one build side of a left-deep join spine. BuildKey indexes
// the build table's schema; ProbeKey indexes the combined namespace of the
// sides joined before this stage.
type JoinStage struct {
	Side     JoinSide
	BuildKey int
	ProbeKey int
}

// JoinPlan is an executable join: probe side, build stages innermost-first,
// the combined output namespace, and the consumption query over it.
// Construct it with FromJoinPlan.
type JoinPlan struct {
	Probe   JoinSide
	Stages  []JoinStage
	Schema  *geometry.Schema
	Offsets []int // Offsets[i]: combined start of side i (0 = probe, 1+k = stage k)
	Consume Query

	// colSide/colSlot map each combined column to its owning side and the
	// fetch slot within it (probe-local column, or build-entry position).
	colSide []int
	colSlot []int
}

// JoinSchema concatenates per-table schemas into one combined namespace.
// Column names stay bare when globally unique and qualify to "table.column"
// otherwise. The returned offsets give each table's starting index.
func JoinSchema(tables []string, schemas []*geometry.Schema) (*geometry.Schema, []int, error) {
	if len(tables) != len(schemas) {
		return nil, nil, errors.New("engine: JoinSchema needs one schema per table")
	}
	count := map[string]int{}
	for _, s := range schemas {
		for i := 0; i < s.NumColumns(); i++ {
			count[s.Column(i).Name]++
		}
	}
	var cols []geometry.Column
	offsets := make([]int, len(tables))
	for ti, s := range schemas {
		offsets[ti] = len(cols)
		for i := 0; i < s.NumColumns(); i++ {
			c := s.Column(i)
			if count[c.Name] > 1 {
				c.Name = tables[ti] + "." + c.Name
			}
			cols = append(cols, c)
		}
	}
	sch, err := geometry.NewSchema(cols...)
	if err != nil {
		return nil, nil, fmt.Errorf("engine: combined join schema: %w", err)
	}
	return sch, offsets, nil
}

// keyFamily buckets column types into join-compatible families: integral
// (BIGINT/INT/DATE join across widths), float, and CHAR.
func keyFamily(t geometry.ColumnType) int {
	switch t {
	case geometry.Float64:
		return 1
	case geometry.Char:
		return 2
	default:
		return 0
	}
}

// sideChain unpacks one side's [Filter]→Scan chain.
func sideChain(n *plan.Node) (scan *plan.Node, sel expr.Conjunction, err error) {
	cur := n
	var preds expr.Conjunction
	if cur.Op == plan.OpFilter {
		preds = cur.Preds
		cur = cur.Input
	}
	if cur == nil || cur.Op != plan.OpScan {
		return nil, nil, errors.New("engine: join side must be a [Filter]→Scan chain")
	}
	return cur, preds, nil
}

// FromJoinPlan validates a join tree and lowers it to an executable
// JoinPlan, whose consume query carries the sinks, and returns those sinks
// again for the caller that charges them (ApplySinks). lookup resolves a
// table name to its schema.
func FromJoinPlan(root *plan.Node, lookup func(string) (*geometry.Schema, error)) (*JoinPlan, Sinks, error) {
	var sk Sinks
	if err := root.Validate(); err != nil {
		return nil, sk, err
	}
	cur := root
	if cur.Op == plan.OpLimit {
		sk.Limit = cur.N
		sk.HasLimit = true
		cur = cur.Input
	}
	if cur.Op == plan.OpOrderBy {
		sk.Keys = cur.Keys
		cur = cur.Input
	}
	consumeNode := cur // Project or Aggregate, per Validate

	spine := consumeNode.Input.Joins() // outermost-first
	inner := spine[len(spine)-1]

	// Collect sides in combined order: probe, then builds innermost-first.
	sideScans := make([]*plan.Node, 0, len(spine)+1)
	sideSels := make([]expr.Conjunction, 0, len(spine)+1)
	scan, preds, err := sideChain(inner.Input)
	if err != nil {
		return nil, sk, err
	}
	sideScans, sideSels = append(sideScans, scan), append(sideSels, preds)
	for i := len(spine) - 1; i >= 0; i-- {
		scan, preds, err := sideChain(spine[i].Build)
		if err != nil {
			return nil, sk, err
		}
		sideScans, sideSels = append(sideScans, scan), append(sideSels, preds)
	}

	tables := make([]string, len(sideScans))
	schemas := make([]*geometry.Schema, len(sideScans))
	for i, s := range sideScans {
		tables[i] = s.Table
		sch, err := lookup(s.Table)
		if err != nil {
			return nil, sk, err
		}
		schemas[i] = sch
	}
	combined, offsets, err := JoinSchema(tables, schemas)
	if err != nil {
		return nil, sk, err
	}

	p := &JoinPlan{Schema: combined, Offsets: offsets}
	switch consumeNode.Op {
	case plan.OpProject:
		p.Consume.Projection = consumeNode.Cols
	case plan.OpAggregate:
		p.Consume.GroupBy = consumeNode.GroupBy
		p.Consume.Aggregates = make([]AggTerm, len(consumeNode.Aggs))
		for i, a := range consumeNode.Aggs {
			p.Consume.Aggregates[i] = AggTerm{Kind: a.Kind, Arg: a.Arg}
		}
	}
	p.Consume.Sinks = sk
	if err := p.Consume.Validate(combined); err != nil {
		return nil, sk, err
	}

	// Distribute the consumed combined columns onto their owning sides,
	// then add each stage's keys; a side's projection is exactly what the
	// join will fetch from it.
	needed := make([][]int, len(sideScans))
	seen := make([]map[int]bool, len(sideScans))
	for i := range seen {
		seen[i] = map[int]bool{}
	}
	sideOf := func(c int) int {
		s := 0
		for i := 1; i < len(offsets); i++ {
			if c >= offsets[i] {
				s = i
			}
		}
		return s
	}
	addNeeded := func(c int) {
		s := sideOf(c)
		local := c - offsets[s]
		if !seen[s][local] {
			seen[s][local] = true
			needed[s] = append(needed[s], local)
		}
	}
	for _, c := range p.Consume.consumedColumns() {
		addNeeded(c)
	}
	p.Stages = make([]JoinStage, len(spine))
	for k := range p.Stages {
		j := spine[len(spine)-1-k] // stage k = (k+1)'th innermost join
		bsch := schemas[k+1]
		if j.BuildKey >= bsch.NumColumns() {
			return nil, sk, fmt.Errorf("engine: join build key %d out of range for table %q", j.BuildKey, tables[k+1])
		}
		if j.ProbeKey >= offsets[k+1] {
			return nil, sk, fmt.Errorf("engine: join probe key %d not resolved by the sides joined before table %q", j.ProbeKey, tables[k+1])
		}
		pf := keyFamily(combined.Column(j.ProbeKey).Type)
		bf := keyFamily(bsch.Column(j.BuildKey).Type)
		if pf != bf {
			return nil, sk, fmt.Errorf("engine: join keys %q and %q have incompatible types",
				combined.Column(j.ProbeKey).Name, bsch.Column(j.BuildKey).Name)
		}
		addNeeded(j.ProbeKey)
		if !seen[k+1][j.BuildKey] {
			seen[k+1][j.BuildKey] = true
			needed[k+1] = append(needed[k+1], j.BuildKey)
		}
		p.Stages[k].BuildKey = j.BuildKey
		p.Stages[k].ProbeKey = j.ProbeKey
	}

	mkSide := func(i int) (JoinSide, error) {
		q := Query{Projection: needed[i], Selection: sideSels[i], Snapshot: sideScans[i].Snapshot}
		if err := q.Validate(schemas[i]); err != nil {
			return JoinSide{}, fmt.Errorf("engine: join side %q: %w", tables[i], err)
		}
		if len(sideScans[i].Cols) == 0 {
			sideScans[i].Cols = q.NeededColumns()
		}
		return JoinSide{Table: tables[i], Query: q, Node: sideScans[i]}, nil
	}
	if p.Probe, err = mkSide(0); err != nil {
		return nil, sk, err
	}
	for k := range p.Stages {
		if p.Stages[k].Side, err = mkSide(k + 1); err != nil {
			return nil, sk, err
		}
	}
	p.layout()
	return p, sk, nil
}

// layout computes (once) the combined-column → (side, slot) mapping the
// probe's combined fetch uses.
func (p *JoinPlan) layout() ([]int, []int) {
	if p.colSide != nil {
		return p.colSide, p.colSlot
	}
	n := p.Schema.NumColumns()
	side := make([]int, n)
	slot := make([]int, n)
	for c := 0; c < n; c++ {
		s := 0
		for i := 1; i < len(p.Offsets); i++ {
			if c >= p.Offsets[i] {
				s = i
			}
		}
		side[c] = s
		if s == 0 {
			slot[c] = c
			continue
		}
		slot[c] = -1
		local := c - p.Offsets[s]
		for i, pc := range p.Stages[s-1].Side.Query.Projection {
			if pc == local {
				slot[c] = i
				break
			}
		}
	}
	p.colSide, p.colSlot = side, slot
	return side, slot
}

// buildJoinTables streams each build side into its stage's hash table,
// charging HashBuildCycles per qualifying row inside the side's measured
// window.
func buildJoinTables(p *JoinPlan, builds []Source) ([]*joinBuild, []*Result, error) {
	if len(builds) != len(p.Stages) {
		return nil, nil, fmt.Errorf("engine: join plan has %d stages but %d build sources", len(p.Stages), len(builds))
	}
	p.layout()
	tables := make([]*joinBuild, len(p.Stages))
	results := make([]*Result, len(p.Stages))
	for k := range p.Stages {
		stage := &p.Stages[k]
		proj := stage.Side.Query.Projection
		keySlot := slices.Index(proj, stage.BuildKey)
		if keySlot < 0 {
			return nil, nil, fmt.Errorf("engine: stage %d build key %d missing from side projection", k, stage.BuildKey)
		}
		tbl := newJoinBuild(p.Schema, p.Offsets[k+1], proj, keySlot)
		res, err := runScan(builds[k], &stage.Side.Query, fmt.Sprintf("build[%d]", k), tbl, false)
		if err != nil {
			return nil, nil, err
		}
		tables[k] = tbl
		results[k] = res
	}
	return tables, results, nil
}

// probeSemiJoin builds the fabric-side Bloom pre-filter for an offloaded
// probe scan from stage 0's finished hash table: every build key enters the
// filter, and the fabric drops probe rows whose key cannot be present before
// they ship. Stage 0's probe key is always probe-local (FromJoinPlan
// validates ProbeKey < Offsets[1]), so it addresses the probe table
// directly. The filter is populated during the build side's existing
// HashBuildCycles pass — inserting into a Bloom filter rides the same
// per-row hashing work, so no extra cycles are charged.
func probeSemiJoin(p *JoinPlan, tables []*joinBuild) *fabric.SemiJoin {
	if len(p.Stages) == 0 || len(tables) == 0 {
		return nil
	}
	t := &tables[0].tbl
	bl := fabric.NewBloom(t.Keys())
	for i := 0; i < t.Keys(); i++ {
		bl.Add(t.Key(i))
	}
	return &fabric.SemiJoin{Col: p.Stages[0].ProbeKey, Filter: bl}
}

func addBreakdown(dst *Breakdown, b Breakdown) {
	dst.ComputeCycles += b.ComputeCycles
	dst.MemDemandCycles += b.MemDemandCycles
	dst.ProducerCycles += b.ProducerCycles
	dst.BytesFromDRAM += b.BytesFromDRAM
	dst.BytesToCPU += b.BytesToCPU
	dst.PipelineCycles += b.PipelineCycles
	dst.TotalCycles += b.TotalCycles
}

// JoinExec is the join executor: build phases run first, then the probe
// side streams once — never materialized — through the multi-stage prober.
// Every side is a Source, so RM can feed either side a packed column group
// while ROW probes the base heap, and each phase's span reconciles with its
// share of the summed Breakdown. A PAR probe streams each morsel into its
// own prober over the shared, read-only build tables.
type JoinExec struct {
	Plan   *JoinPlan
	Probe  Source
	Builds []Source // one per stage, in stage order
}

// Execute runs the join and returns the consumed result; RowsPassed is the
// join cardinality reaching the consumer.
func (e *JoinExec) Execute() (*Result, error) {
	p := e.Plan
	if p == nil || e.Probe == nil {
		return nil, errors.New("engine: JoinExec needs a plan and a probe source")
	}
	_, tr := e.Probe.sysTracer()
	name := e.Probe.Name()
	sp := beginEngineSpan(tr, name+".execute", name, p.Probe.Table)
	sp.SetAttr("join_stages", strconv.Itoa(len(p.Stages)))
	defer tr.End()

	tables, buildRes, err := buildJoinTables(p, e.Builds)
	if err != nil {
		return nil, err
	}

	// An offloaded RM or PAR probe gets the build side's Bloom filter
	// pushed into the fabric: probe chunks are pre-filtered near data, so
	// rows that cannot join never cross to the CPU. The filter is built
	// once; every morsel's fabric shares it read-only.
	rm, _ := e.Probe.(*RMEngine)
	par, _ := e.Probe.(*ParallelEngine)
	var semi *fabric.SemiJoin
	if (rm != nil && rm.Offload && rm.SemiJoin == nil) || (par != nil && par.Offload) {
		if semi = probeSemiJoin(p, tables); semi != nil {
			sp.SetAttr("probe_filter", "bloom")
		}
	}

	var res *Result
	act := &plan.Act{}
	if par != nil {
		var built uint64
		for _, br := range buildRes {
			built += br.Breakdown.TotalCycles
		}
		res, act.RowsPassed, err = par.morsels(p.Consume, sp, built, func(src *RMEngine) (*Result, int64, error) {
			src.Offload, src.SemiJoin = par.Offload, semi
			return probeJoin(p, tables, src, true)
		})
		if err != nil {
			return nil, err
		}
	} else {
		if semi != nil {
			rm.SemiJoin = semi
		}
		if res, act.RowsPassed, err = probeJoin(p, tables, e.Probe, false); err != nil {
			return nil, err
		}
	}
	act.RowsScanned, act.Cycles = res.RowsScanned, res.Breakdown.TotalCycles
	if p.Probe.Node != nil {
		p.Probe.Node.Act = act
	}
	for k, br := range buildRes {
		res.RowsScanned += br.RowsScanned
		addBreakdown(&res.Breakdown, br.Breakdown)
		stampSideAct(p.Stages[k].Side.Node, br)
	}
	return res, nil
}

// probeJoin streams src's probe scan through a prober over the build tables
// and returns the consumed result (a partial, for a morsel's merge, when
// part is set) and how many probe rows passed the side's selection. The
// result's RowsPassed is the join cardinality, not the probe side's own
// selectivity, so the latter rides back separately.
func probeJoin(p *JoinPlan, tables []*joinBuild, src Source, part bool) (*Result, int64, error) {
	probe := newJoinProbe(p, tables)
	probeRes, err := runScan(src, &p.Probe.Query, "probe", probe, false)
	if err != nil {
		return nil, 0, err
	}
	res := probe.result(src.Name(), probeRes.RowsScanned, part)
	res.Breakdown = probeRes.Breakdown
	res.Offload = probeRes.Offload
	return res, probeRes.RowsPassed, nil
}

// stampSideAct records what one join side actually did onto its Scan node,
// the per-side half of the estimated-vs-actual pair EXPLAIN ANALYZE renders.
func stampSideAct(n *plan.Node, r *Result) {
	if n == nil || r == nil {
		return
	}
	n.Act = &plan.Act{
		RowsScanned: r.RowsScanned,
		RowsPassed:  r.RowsPassed,
		Cycles:      r.Breakdown.TotalCycles,
	}
}

// ParallelJoinExec is the morsel-parallel join: a JoinExec whose probe is
// a ParallelEngine over ProbeTbl. Build sides run once on the shared System;
// the probe's morsels stream on RM sources of private System clones.
type ParallelJoinExec struct {
	Plan     *JoinPlan
	ProbeTbl *table.Table
	Sys      *System
	Par      ParallelConfig
	Builds   []Source // build sources over the shared System, in stage order

	// Offload runs each morsel's probe scan in offload mode with the build
	// side's Bloom filter pushed into the worker's fabric, pre-filtering
	// probe chunks near data.
	Offload bool

	Tracer *obs.Tracer
}

// Execute runs the parallel join and returns the merged result.
func (e *ParallelJoinExec) Execute() (*Result, error) {
	probe := &ParallelEngine{Tbl: e.ProbeTbl, Sys: e.Sys, Par: e.Par, Offload: e.Offload, Tracer: e.Tracer}
	return (&JoinExec{Plan: e.Plan, Probe: probe, Builds: e.Builds}).Execute()
}
