package rfabric

import (
	"rfabric/internal/index"
	"rfabric/internal/shard"
)

// ShardedTable is a range-sharded table over fabric-equipped nodes
// (§III-A: horizontal partitioning composed with the fabric); its Execute
// returns a Result whose Morsels counts the shards touched.
type ShardedTable = shard.Table

// NewShardedTable creates len(bounds)+1 shards on keyCol, each with its own
// simulated system.
func NewShardedTable(name string, schema *Schema, keyCol int, bounds []int64, capacityPerShard int, cfg Config) (*ShardedTable, error) {
	return shard.New(name, schema, keyCol, bounds, capacityPerShard, cfg)
}

// Indexes (§III-A's residual role: point queries and small ranges).
type (
	// BTree is a B+tree over a numeric column of a row table.
	BTree = index.BTree
)

// BuildIndex bulk-loads a B+tree over column col of tbl; node addresses
// come from the system's arena so traversals are cost-modeled.
func BuildIndex(sys *System, tbl *Table, col int) (*BTree, error) {
	return index.Build(tbl, col, sys.Arena)
}
