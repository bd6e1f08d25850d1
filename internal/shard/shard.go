// Package shard implements horizontal partitioning over fabric-equipped
// nodes. The paper keeps horizontal partitioning a physical-design-time
// decision but argues it composes naturally with the fabric (§III-A: "the
// data system can request the desired column group on a sharding key range,
// and the Relational Fabric will directly return the corresponding data").
// A sharded table routes rows by a range-partitioned key and prunes a query
// to the shards its key-range predicates touch; everything after pruning is
// the engine's scatter/gather core (engine.Gather), the one PAR morsels run
// on: each touched shard executes on its own node's simulated System, and
// the partials merge in shard order exactly like morsels. Modeled time is
// the makespan of scheduling the touched shards onto the worker pool plus
// the coordinator's merge cost: with enough workers that is the slowest
// touched shard, the nodes working in parallel.
package shard

import (
	"errors"
	"fmt"
	"sort"

	"rfabric/internal/engine"
	"rfabric/internal/geometry"
	"rfabric/internal/sql"
	"rfabric/internal/table"
)

// Table is a range-sharded table: shard i holds keys in
// [bounds[i-1], bounds[i]), with implicit -inf and +inf at the ends.
type Table struct {
	name   string
	schema *geometry.Schema
	keyCol int
	bounds []int64 // len = shards-1, ascending upper bounds (exclusive)
	nodes  []*node

	// Workers bounds the coordinator's scatter pool: how many shards
	// execute concurrently (each on its own node's private System). Zero or
	// negative means runtime.GOMAXPROCS(0). Results are identical for every
	// value; only modeled coordinator time and wall-clock time change.
	Workers int
}

type node struct {
	sys *engine.System
	tbl *table.Table
}

// New creates a sharded table with len(bounds)+1 shards, each with its own
// simulated system and capacity rows of reserved space.
func New(name string, schema *geometry.Schema, keyCol int, bounds []int64, capacityPerShard int, cfg engine.SystemConfig) (*Table, error) {
	if schema == nil {
		return nil, errors.New("shard: nil schema")
	}
	if keyCol < 0 || keyCol >= schema.NumColumns() {
		return nil, fmt.Errorf("shard: key column %d out of range", keyCol)
	}
	switch schema.Column(keyCol).Type {
	case geometry.Int64, geometry.Int32, geometry.Date:
	default:
		return nil, fmt.Errorf("shard: key column type %s is not range-shardable", schema.Column(keyCol).Type)
	}
	if capacityPerShard <= 0 {
		return nil, fmt.Errorf("shard: capacity per shard must be positive, got %d", capacityPerShard)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i-1] >= bounds[i] {
			return nil, fmt.Errorf("shard: bounds not strictly ascending at %d", i)
		}
	}
	st := &Table{name: name, schema: schema, keyCol: keyCol, bounds: append([]int64(nil), bounds...)}
	for i := 0; i <= len(bounds); i++ {
		sys, err := engine.NewSystem(cfg)
		if err != nil {
			return nil, err
		}
		base := sys.Arena.Alloc(int64(capacityPerShard * schema.RowBytes()))
		tbl, err := table.New(fmt.Sprintf("%s.shard%d", name, i), schema,
			table.WithCapacity(capacityPerShard), table.WithBaseAddr(base))
		if err != nil {
			return nil, err
		}
		st.nodes = append(st.nodes, &node{sys: sys, tbl: tbl})
	}
	return st, nil
}

// NumShards returns the shard count.
func (t *Table) NumShards() int { return len(t.nodes) }

// ShardRows returns per-shard row counts.
func (t *Table) ShardRows() []int {
	out := make([]int, len(t.nodes))
	for i, n := range t.nodes {
		out[i] = n.tbl.NumRows()
	}
	return out
}

// shardOf routes a key.
func (t *Table) shardOf(key int64) int {
	return sort.Search(len(t.bounds), func(i int) bool { return key < t.bounds[i] })
}

// Insert routes one row by its sharding key.
func (t *Table) Insert(vals ...table.Value) error {
	if len(vals) != t.schema.NumColumns() {
		return fmt.Errorf("shard: got %d values for %d columns", len(vals), t.schema.NumColumns())
	}
	key := vals[t.keyCol]
	switch key.Type {
	case geometry.Int64, geometry.Int32, geometry.Date:
	default:
		return fmt.Errorf("shard: key value has type %s", key.Type)
	}
	_, err := t.nodes[t.shardOf(key.Int)].tbl.Append(1, vals...)
	return err
}

// prune returns the shards whose key range intersects [lo, hi].
func (t *Table) prune(lo, hi int64) []int {
	if lo > hi {
		return nil
	}
	first := t.shardOf(lo)
	last := t.shardOf(hi)
	out := make([]int, 0, last-first+1)
	for s := first; s <= last; s++ {
		out = append(out, s)
	}
	return out
}

// Execute compiles a single-table SQL statement over the sharded table and
// runs it (see execute). The merge finishes ORDER BY / LIMIT, and
// ApplySinks charges their sort. JOIN statements are rejected: the
// coordinator merges partial scans and aggregates only.
func (t *Table) Execute(text string) (*engine.Result, error) {
	st, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	if len(st.Joins) > 0 {
		return nil, errors.New("shard: JOIN statements are not supported")
	}
	if st.Table != t.name {
		return nil, fmt.Errorf("shard: statement reads table %q, not %q", st.Table, t.name)
	}
	root, err := sql.Lower(st, t.schema)
	if err != nil {
		return nil, err
	}
	q, sk, err := engine.FromPlan(root)
	if err != nil {
		return nil, err
	}
	res, err := t.execute(q)
	if err != nil {
		return nil, err
	}
	engine.ApplySinks(res, sk)
	return res, nil
}

// execute runs the query on the RM path of every shard the selection cannot
// rule out and merges the partials through engine.Gather. The result's
// Morsels counts the shards touched, and Breakdown.TotalCycles is the
// modeled time: the makespan of scheduling the touched shards' executions
// onto the worker pool plus a per-shard merge charge. With at least as many
// workers as touched shards this is the slowest shard (the nodes run fully
// in parallel); with one worker it degenerates to the sum of shards.
func (t *Table) execute(q engine.Query) (*engine.Result, error) {
	if err := q.Validate(t.schema); err != nil {
		return nil, err
	}
	lo, hi, _ := q.Selection.KeyRange(t.keyCol)
	touched := t.prune(lo, hi)
	// Shard touched[i] appears once, so its node's System is driven only by
	// the worker holding partition i.
	res, _, err := engine.Gather("SHARD", q, len(touched), t.Workers, func(i int) (*engine.Result, error) {
		n := t.nodes[touched[i]]
		n.sys.ResetState()
		return engine.RunPartial(&engine.RMEngine{Tbl: n.tbl, Sys: n.sys, PushSelection: true}, q)
	})
	return res, err
}
