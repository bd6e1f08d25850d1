package main

import (
	"fmt"
	"math/rand"

	"rfabric"
	"rfabric/internal/engine"
	"rfabric/internal/fabric"
	"rfabric/internal/index"
	"rfabric/internal/table"
	"rfabric/internal/tpch"
)

const (
	// lineitemRows is the generated lineitem size of every workload.
	lineitemRows = 1 << 16
	// variants is how many seeded literal sets each statement template
	// gets. Round r uses variant r%variants, so fingerprints repeat while
	// texts vary. Many variants spread each statement's latency over a
	// range rather than a few points, which keeps the mix's percentiles
	// from flipping between clusters.
	variants = 16
	// minRounds is the number of rounds every run completes whatever its
	// time budget; modeled_cycles_per_query averages over exactly these, so
	// it repeats exactly for a fixed seed.
	minRounds = 4
	// insertHeadroom is the reserved lineitem capacity warm-write inserts
	// into; it bounds the number of rounds a warm-write run may take.
	insertHeadroom = 4096
	// insertsPerRound is warm-write's write burst at the end of each round.
	insertsPerRound = 3
	// calibrationBytes is the group-cache capacity warm-write measures its
	// column groups with: large enough that nothing is evicted.
	calibrationBytes = 1 << 40
)

// stmt is one statement template: a name and its seeded texts.
type stmt struct {
	name  string
	texts []string
}

// op is one operation of the closed-loop client: a query on one engine
// kind (ad hoc or through a prepared fragment) or an insert of a copied
// lineitem row.
type op struct {
	id       int
	round    int
	insert   bool
	srcRow   int // insert: the lineitem row whose values are copied
	stmt     int // query: index into workload.stmts
	text     string
	kind     rfabric.EngineKind
	prepared bool
}

// workload is one seeded input set: a catalog, a statement set, and the
// order in which the client issues them.
type workload struct {
	name       string
	joins      bool // build orders/customer/part next to lineitem
	index      bool // secondary index on l_shipdate
	headroom   int  // reserved lineitem rows beyond the generated ones
	offload    bool
	groupCache bool
	kinds      []rfabric.EngineKind
	stmts      []stmt
	// pattern is the statement order of one round; every slot runs once on
	// each kind.
	pattern []slot
	// hot and cold split warm-write's statements for the group-cache
	// capacity: the cache holds every hot group plus half the smallest
	// cold one, so cold statements evict.
	hot, cold []int
	seed      int64
}

var workloadNames = []string{"scan", "join", "warm-write"}

// slot is one position of a round: a statement and the offset of its
// literal variant from the round's (round r runs variant (r+shift) mod
// variants).
type slot struct{ stmt, shift int }

// newWorkload builds the named workload's statement set from seed.
func newWorkload(name string, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &workload{name: name, seed: seed}
	switch name {
	case "scan":
		w.index = true
		w.kinds = []rfabric.EngineKind{rfabric.ROW, rfabric.COL, rfabric.RM, "IDX", rfabric.AUTO}
		w.stmts = []stmt{projection(rng), q1(rng), q6(rng), topN(rng)}
		// Q6, the data-movement-bound query of Figure 7b, runs three
		// times per round on three variants. With equal weights the mix's
		// median falls in the sparse gap between the fast and the slow
		// statements, where a run's value flips between them; the extra
		// Q6 runs put it inside the dense cluster of Q6 and projection
		// latencies.
		w.pattern = []slot{{0, 0}, {1, 0}, {2, 0}, {3, 0}, {2, 5}, {2, 10}}
	case "join":
		w.joins, w.index, w.offload = true, true, true
		w.kinds = []rfabric.EngineKind{rfabric.ROW, rfabric.COL, rfabric.RM, rfabric.PAR, rfabric.AUTO}
		w.stmts = []stmt{q3(rng), q5(rng), q10(rng)}
		w.pattern = []slot{{0, 0}, {1, 0}, {2, 0}}
	case "warm-write":
		w.headroom, w.groupCache = insertHeadroom, true
		w.kinds = []rfabric.EngineKind{rfabric.RM, rfabric.AUTO, rfabric.COL}
		w.stmts = []stmt{q6(rng), projection(rng), q1(rng), topN(rng)}
		w.hot, w.cold = []int{0, 1}, []int{2, 3}
		// Hot, cold, hot, hot, cold, hot: each hot statement twice.
		w.pattern = []slot{{0, 0}, {2, 0}, {1, 0}, {0, 0}, {3, 0}, {1, 0}}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return w, nil
}

// rounds returns the op generator: each call yields the next round's ops.
// The generator is deterministic in the workload seed, so a traced run
// replays exactly the untraced run's sequence.
func (w *workload) rounds() func() []op {
	rng := rand.New(rand.NewSource(w.seed ^ 0x5eed))
	r, id := 0, 0
	return func() []op {
		var ops []op
		add := func(o op) {
			o.id, o.round = id, r
			id++
			ops = append(ops, o)
		}
		// A writing workload alternates prepared and ad hoc ops and ends
		// each round with a write burst.
		writes := w.writes()
		for _, sl := range w.pattern {
			text := w.stmts[sl.stmt].texts[(r+sl.shift)%variants]
			for _, k := range w.kinds {
				add(op{stmt: sl.stmt, text: text, kind: k, prepared: writes && id%2 == 0})
			}
		}
		if writes {
			for i := 0; i < insertsPerRound; i++ {
				add(op{insert: true, srcRow: rng.Intn(lineitemRows)})
			}
		}
		r++
		return ops
	}
}

// writes reports whether the workload inserts: only one with reserved
// headroom can.
func (w *workload) writes() bool { return w.headroom > 0 }

// maxRounds bounds a run: inserts may not outgrow the reserved headroom.
func (w *workload) maxRounds() int {
	if w.writes() {
		return w.headroom / insertsPerRound
	}
	return 1 << 30
}

// strata draws one value per variant from [lo, hi): variant v falls in the
// v-th of variants equal slices, so every seed covers the whole range and
// only the jitter inside each slice depends on the seed.
func strata(rng *rand.Rand, lo, hi int) []int {
	out := make([]int, variants)
	jitter := max(1, (hi-lo)/variants)
	for v := range out {
		out[v] = lo + (hi-lo)*v/variants + rng.Intn(jitter)
	}
	return out
}

func mustDay(s string) int32 {
	d, err := rfabric.ParseDate(s)
	if err != nil {
		panic(err)
	}
	return d
}

func day(base string, offset int) string {
	return rfabric.FormatDate(mustDay(base) + int32(offset))
}

func projection(rng *rand.Rand) stmt {
	s := stmt{name: "projection"}
	for _, off := range strata(rng, -120, 120) {
		s.texts = append(s.texts, fmt.Sprintf(
			"SELECT l_orderkey, l_extendedprice, l_quantity FROM lineitem WHERE l_shipdate < DATE '%s'",
			day("1995-06-17", off)))
	}
	return s
}

func q1(rng *rand.Rand) stmt {
	s := stmt{name: "q1"}
	for _, off := range strata(rng, 60, 120) {
		s.texts = append(s.texts, fmt.Sprintf(
			"SELECT l_returnflag, l_linestatus, SUM(l_quantity), SUM(l_extendedprice), "+
				"SUM(l_extendedprice * (1 - l_discount)), AVG(l_discount), COUNT(*) FROM lineitem "+
				"WHERE l_shipdate <= DATE '%s' GROUP BY l_returnflag, l_linestatus",
			day("1998-12-01", -off)))
	}
	return s
}

func q6(rng *rand.Rand) stmt {
	s := stmt{name: "q6"}
	for v, off := range strata(rng, 0, 365) {
		lo := day("1993-01-01", off+365*(v%2))
		hi := rfabric.FormatDate(mustDay(lo) + 365)
		disc := 3 + rng.Intn(5)
		s.texts = append(s.texts, fmt.Sprintf(
			"SELECT SUM(l_extendedprice * l_discount) FROM lineitem WHERE l_shipdate >= DATE '%s' "+
				"AND l_shipdate < DATE '%s' AND l_discount BETWEEN 0.%02d AND 0.%02d AND l_quantity < %d",
			lo, hi, disc-1, disc+1, 24+rng.Intn(2)))
	}
	return s
}

func topN(rng *rand.Rand) stmt {
	s := stmt{name: "top-n"}
	for _, off := range strata(rng, -120, 120) {
		s.texts = append(s.texts, fmt.Sprintf(
			"SELECT l_suppkey, SUM(l_extendedprice), COUNT(*) FROM lineitem WHERE l_shipdate >= DATE '%s' "+
				"GROUP BY l_suppkey ORDER BY 2 DESC LIMIT 10",
			day("1996-06-01", off)))
	}
	return s
}

func q3(rng *rand.Rand) stmt {
	s := stmt{name: "q3"}
	for _, off := range strata(rng, -40, 40) {
		d := day("1995-03-15", off)
		s.texts = append(s.texts, fmt.Sprintf(
			"SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)), o_orderdate "+
				"FROM lineitem JOIN orders ON l_orderkey = o_orderkey "+
				"WHERE o_orderdate < DATE '%s' AND l_shipdate > DATE '%s' "+
				"GROUP BY l_orderkey, o_orderdate ORDER BY 2 DESC LIMIT 10", d, d))
	}
	return s
}

func q5(rng *rand.Rand) stmt {
	s := stmt{name: "q5"}
	for _, size := range strata(rng, 12, 20) {
		s.texts = append(s.texts, fmt.Sprintf(
			"SELECT p_brand, SUM(l_extendedprice * (1 - l_discount)), COUNT(*) "+
				"FROM lineitem JOIN part ON l_partkey = p_partkey WHERE p_size <= %d GROUP BY p_brand", size))
	}
	return s
}

func q10(rng *rand.Rand) stmt {
	s := stmt{name: "q10"}
	for _, off := range strata(rng, 0, 360) {
		lo := day("1993-07-01", off)
		s.texts = append(s.texts, fmt.Sprintf(
			"SELECT c_nationkey, SUM(l_extendedprice * (1 - l_discount)), COUNT(*) "+
				"FROM lineitem JOIN orders ON l_orderkey = o_orderkey JOIN customer ON o_custkey = c_custkey "+
				"WHERE l_returnflag = 'R' AND o_orderdate >= DATE '%s' AND o_orderdate < DATE '%s' "+
				"GROUP BY c_nationkey", lo, rfabric.FormatDate(mustDay(lo)+182)))
	}
	return s
}

// catalog is one database built for a workload, plus the index handle the
// layered dispatcher needs (the façade keeps its own private).
type catalog struct {
	db  *rfabric.DB
	idx *index.BTree
}

// buildCatalog opens a database and generates the workload's tables. The
// join catalog is built exactly as rfabric.NewTPCHDB builds it; lineitem
// gets the workload's reserved headroom.
func buildCatalog(w *workload) (*catalog, error) {
	db, err := rfabric.Open(rfabric.DefaultConfig())
	if err != nil {
		return nil, err
	}
	li, err := db.CreateTable("lineitem", tpch.LineitemSchema(), lineitemRows+w.headroom)
	if err != nil {
		return nil, err
	}
	if err := tpch.Generate(li, lineitemRows, w.seed); err != nil {
		return nil, err
	}
	if w.joins {
		nOrders := tpch.OrdersFor(lineitemRows)
		ord, err := db.CreateTable("orders", tpch.OrdersSchema(), nOrders)
		if err != nil {
			return nil, err
		}
		if err := tpch.GenerateOrders(ord, nOrders, w.seed+1); err != nil {
			return nil, err
		}
		nCust := tpch.CustomersFor(nOrders)
		cust, err := db.CreateTable("customer", tpch.CustomerSchema(), nCust)
		if err != nil {
			return nil, err
		}
		if err := tpch.GenerateCustomer(cust, nCust, w.seed+2); err != nil {
			return nil, err
		}
		const nPart = 300 // as NewTPCHDB: a prefix of the part-key domain
		part, err := db.CreateTable("part", tpch.PartSchema(), nPart)
		if err != nil {
			return nil, err
		}
		if err := tpch.GeneratePart(part, nPart, w.seed+3); err != nil {
			return nil, err
		}
	}
	c := &catalog{db: db}
	if w.index {
		if c.idx, err = db.CreateIndex("lineitem", "l_shipdate"); err != nil {
			return nil, err
		}
	}
	db.SetOffload(w.offload)
	return c, nil
}

// executor runs ops against one database: the DB façade, or the
// benchmark's own layer-by-layer dispatch over an identical database.
type executor interface {
	query(o *op) (*engine.Result, error)
	insert(vals []table.Value) error
	setGroupCache(capacity int64)
	groupCacheStats() fabric.GroupCacheStats
}

// cacheSizes reports warm-write's group-cache sizing: every statement's
// column-group bytes, the hot subset, the whole set, and the capacity.
type cacheSizes struct {
	group          []int64
	hot, all, capa int64
}

// setup runs the workload's set-up ops on every executor in lockstep, in
// the order given: group-cache calibration (warm-write), then a warm-up
// that builds every columnar copy and touches every engine kind once.
func setup(w *workload, execs ...executor) (*cacheSizes, error) {
	run := func(o *op) error {
		for _, e := range execs {
			if _, err := e.query(o); err != nil {
				return fmt.Errorf("set-up %s on %s: %w", w.stmts[o.stmt].name, o.kind, err)
			}
		}
		return nil
	}
	var sizes *cacheSizes
	if w.groupCache {
		for _, e := range execs {
			e.setGroupCache(calibrationBytes)
		}
		sizes = &cacheSizes{group: make([]int64, len(w.stmts))}
		for s := range w.stmts {
			before := execs[0].groupCacheStats().BytesCached
			if err := run(&op{id: -1, stmt: s, text: w.stmts[s].texts[0], kind: rfabric.RM}); err != nil {
				return nil, err
			}
			sizes.group[s] = int64(execs[0].groupCacheStats().BytesCached - before)
			sizes.all += sizes.group[s]
		}
		smallestCold := sizes.group[w.cold[0]]
		for _, s := range w.hot {
			sizes.hot += sizes.group[s]
		}
		for _, s := range w.cold {
			smallestCold = min(smallestCold, sizes.group[s])
		}
		sizes.capa = sizes.hot + smallestCold/2
		for _, e := range execs {
			e.setGroupCache(sizes.capa)
		}
	}
	for s := range w.stmts {
		if err := run(&op{id: -1, stmt: s, text: w.stmts[s].texts[0], kind: rfabric.COL}); err != nil {
			return nil, err
		}
	}
	for _, k := range w.kinds {
		if k == rfabric.COL {
			continue
		}
		if err := run(&op{id: -1, stmt: 0, text: w.stmts[0].texts[0], kind: k}); err != nil {
			return nil, err
		}
	}
	return sizes, nil
}

// rowValues copies one lineitem row's values, the payload of an insert op.
func rowValues(tbl *table.Table, row int) ([]table.Value, error) {
	n := tbl.Schema().NumColumns()
	vals := make([]table.Value, n)
	for c := 0; c < n; c++ {
		v, err := tbl.Get(row, c)
		if err != nil {
			return nil, err
		}
		vals[c] = v
	}
	return vals, nil
}
