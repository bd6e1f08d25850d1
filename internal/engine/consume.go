package engine

import (
	"rfabric/internal/geometry"
	"rfabric/internal/table"
	"rfabric/internal/vec"
)

// hashValue folds one projected value into the order-insensitive checksum.
// The encoding is canonical (type-directed), so all engines produce the same
// hash for the same logical value regardless of physical layout. The hash
// itself lives in internal/vec so the batch checksum kernels share one
// definition with this boxed-value path.
func hashValue(col int, v table.Value) uint64 {
	switch v.Type {
	case geometry.Float64:
		return vec.HashF64(col, v.Float)
	case geometry.Char:
		return vec.HashChar(col, v.Bytes)
	default:
		return vec.HashI64(col, v.Int)
	}
}

// consumer folds qualifying rows into the query's output shape and charges
// consumption CPU cycles to the engine's compute counter. It folds into the
// batch pipeline's state: one vec.AggState per term, or a group table.
type consumer struct {
	q       Query
	compute *uint64

	rowsPassed int64
	checksum   uint64
	out        aggOut
	keyBuf     []byte // the current row's group key
}

func newConsumer(q Query, schema *geometry.Schema, compute *uint64) *consumer {
	c := &consumer{q: q, compute: compute}
	switch {
	case len(q.Aggregates) == 0:
	case len(q.GroupBy) > 0:
		keys := make([]geometry.Column, len(q.GroupBy))
		for i, col := range q.GroupBy {
			keys[i] = schema.Column(col)
		}
		c.out.groups = new(vec.GroupTable)
		c.out.groups.Reset(len(q.Aggregates), keys)
		c.keyBuf = make([]byte, c.out.groups.KeyLen())
	default:
		c.out.states = make([]vec.AggState, len(q.Aggregates))
	}
	return c
}

// consumeRow folds one qualifying row. fetch returns the (already loaded and
// charged) value of a schema column; the consumer charges only its own
// folding work.
func (c *consumer) consumeRow(fetch func(col int) table.Value) {
	c.rowsPassed++
	if len(c.q.Aggregates) == 0 {
		for _, col := range c.q.Projection {
			c.checksum += hashValue(col, fetch(col))
			*c.compute += ChecksumCycles
		}
		return
	}

	states := c.out.states
	if g := c.out.groups; g != nil {
		for i, col := range c.q.GroupBy {
			g.PutKey(c.keyBuf, i, fetch(col))
		}
		*c.compute += HashGroupCycles
		id, _ := g.AssignKey(c.keyBuf)
		states = g.States(int(id))
	}

	for i, t := range c.q.Aggregates {
		*c.compute += AggAddCycles
		if t.Arg == nil {
			states[i].Count++
			continue
		}
		*c.compute += uint64(t.Arg.Ops() * ScalarOpCycles)
		states[i].Add(t.Arg.EvalF(fetch))
	}
}

// finish assembles the result shape (without the cost breakdown),
// finishing the fold under the query's sinks or keeping it for a
// partition's merge (see finishAggs).
func (c *consumer) finish(engineName string, rowsScanned int64, part bool) *Result {
	r := &Result{
		Engine:      engineName,
		RowsScanned: rowsScanned,
		RowsPassed:  c.rowsPassed,
		Checksum:    c.checksum,
	}
	r.finishAggs(c.out, c.q, part)
	return r
}
