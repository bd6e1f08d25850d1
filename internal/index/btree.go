// Package index implements a B+tree over a numeric column of a row table.
// The paper's position (§III-A): with Relational Fabric, range queries are
// served efficiently by on-the-fly column-group scans, so "indexes should be
// used for point queries and point updates". This package provides exactly
// that residual role — and the ablation that quantifies it: a point lookup
// costs a handful of node visits against a fabric scan's full sweep.
//
// Nodes live at simulated addresses so traversals charge the cache
// hierarchy like any other memory access.
package index

import (
	"errors"
	"fmt"
	"sort"

	"rfabric/internal/cache"
	"rfabric/internal/dram"
	"rfabric/internal/geometry"
	"rfabric/internal/table"
)

// fanout is the maximum number of keys per node. 64 keys of 8 bytes plus
// child pointers roughly fills four cache lines — a realistic node.
const fanout = 64

// nodeBytes is the simulated footprint of one node.
const nodeBytes = 1024

// BTree is a B+tree mapping int64-comparable column values to row indices.
// Duplicate keys are supported; each leaf entry carries one row index.
type BTree struct {
	col    int
	sch    *geometry.Schema
	root   *node
	height int
	nodes  int
	arena  *dram.Arena

	// Statistics maintained for the constructive optimizer.
	entries  int
	distinct int
	minKey   int64
	maxKey   int64
}

type node struct {
	addr     int64
	leaf     bool
	keys     []int64
	children []*node // internal nodes
	rows     []int   // leaf nodes: row index per key
	next     *node   // leaf chain for range scans
}

// keyOf extracts the indexable int64 from a column value.
func keyOf(v table.Value) (int64, error) {
	switch v.Type {
	case geometry.Int64, geometry.Int32, geometry.Date:
		return v.Int, nil
	default:
		return 0, fmt.Errorf("index: column type %s is not indexable", v.Type)
	}
}

// Build bulk-loads a B+tree over column col of tbl, allocating node
// addresses from arena. MVCC tables are indexed over all versions; lookups
// can filter by snapshot afterwards (the paper keeps indexes on base data).
func Build(tbl *table.Table, col int, arena *dram.Arena) (*BTree, error) {
	if tbl == nil || arena == nil {
		return nil, errors.New("index: nil table or arena")
	}
	sch := tbl.Schema()
	if col < 0 || col >= sch.NumColumns() {
		return nil, fmt.Errorf("index: column %d out of range", col)
	}
	switch sch.Column(col).Type {
	case geometry.Int64, geometry.Int32, geometry.Date:
	default:
		return nil, fmt.Errorf("index: column %q of type %s is not indexable", sch.Column(col).Name, sch.Column(col).Type)
	}

	t := &BTree{col: col, sch: sch, arena: arena}

	// Collect and sort (key, row) pairs.
	type kr struct {
		k int64
		r int
	}
	pairs := make([]kr, tbl.NumRows())
	for r := 0; r < tbl.NumRows(); r++ {
		v, err := tbl.Get(r, col)
		if err != nil {
			return nil, err
		}
		k, err := keyOf(v)
		if err != nil {
			return nil, err
		}
		pairs[r] = kr{k, r}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].k != pairs[j].k {
			return pairs[i].k < pairs[j].k
		}
		return pairs[i].r < pairs[j].r
	})
	t.entries = len(pairs)
	for i, p := range pairs {
		if i == 0 {
			t.minKey, t.maxKey = p.k, p.k
			t.distinct = 1
			continue
		}
		if p.k != pairs[i-1].k {
			t.distinct++
		}
		t.maxKey = p.k
	}

	// Build the leaf level.
	var leaves []*node
	for start := 0; start < len(pairs); start += fanout {
		end := start + fanout
		if end > len(pairs) {
			end = len(pairs)
		}
		n := t.newNode(true)
		for _, p := range pairs[start:end] {
			n.keys = append(n.keys, p.k)
			n.rows = append(n.rows, p.r)
		}
		if len(leaves) > 0 {
			leaves[len(leaves)-1].next = n
		}
		leaves = append(leaves, n)
	}
	if len(leaves) == 0 {
		t.root = t.newNode(true)
		t.height = 1
		return t, nil
	}

	// Build internal levels bottom-up.
	level := leaves
	t.height = 1
	for len(level) > 1 {
		var parents []*node
		for start := 0; start < len(level); start += fanout {
			end := start + fanout
			if end > len(level) {
				end = len(level)
			}
			p := t.newNode(false)
			for _, child := range level[start:end] {
				// Separator key: the smallest key under the child.
				p.keys = append(p.keys, child.keys[0])
				p.children = append(p.children, child)
			}
			parents = append(parents, p)
		}
		level = parents
		t.height++
	}
	t.root = level[0]
	return t, nil
}

func (t *BTree) newNode(leaf bool) *node {
	t.nodes++
	return &node{addr: t.arena.Alloc(nodeBytes), leaf: leaf}
}

// Column returns the indexed column.
func (t *BTree) Column() int { return t.col }

// Height returns the number of levels.
func (t *BTree) Height() int { return t.height }

// Nodes returns the node count (the index's space cost: nodes * 1 KiB).
func (t *BTree) Nodes() int { return t.nodes }

// Entries returns the number of indexed (key, row) pairs.
func (t *BTree) Entries() int { return t.entries }

// DistinctKeys returns the number of distinct keys — the cardinality
// statistic the optimizer uses to price equality lookups.
func (t *BTree) DistinctKeys() int { return t.distinct }

// KeyRange returns the smallest and largest indexed keys (both zero when
// the index is empty).
func (t *BTree) KeyRange() (min, max int64) { return t.minKey, t.maxKey }

// SizeBytes returns the simulated footprint.
func (t *BTree) SizeBytes() int { return t.nodes * nodeBytes }

// touch charges one node visit to the hierarchy: the header line plus the
// key area actually searched.
func touch(h *cache.Hierarchy, n *node) {
	if h == nil {
		return
	}
	// A binary search over up to 64 keys touches ~3 lines of the node.
	for i := int64(0); i < 3; i++ {
		h.Load(n.addr + i*64)
	}
}

// descend walks from the root to the LEFTMOST leaf that may contain key.
// Separators are the minimum key of their child, so with duplicates a run of
// key may begin in the child before the first separator equal to it.
func (t *BTree) descend(h *cache.Hierarchy, key int64) *node {
	n := t.root
	for !n.leaf {
		touch(h, n)
		// Smallest separator >= key.
		i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= key })
		switch {
		case i < len(n.keys) && n.keys[i] == key:
			// A run of key starts at child i but may spill back into the
			// previous child's tail.
			if i > 0 {
				i--
			}
		case i == 0:
			// key is below every separator: leftmost child.
		default:
			i--
		}
		n = n.children[i]
	}
	touch(h, n)
	return n
}

// Lookup returns the row indices holding exactly key, charging the
// traversal to h (pass nil to skip cost accounting).
func (t *BTree) Lookup(h *cache.Hierarchy, key int64) []int {
	n := t.descend(h, key)
	var out []int
	for n != nil {
		i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= key })
		for ; i < len(n.keys) && n.keys[i] == key; i++ {
			out = append(out, n.rows[i])
		}
		if i < len(n.keys) {
			break // saw a key beyond the run
		}
		n = n.next
		if n != nil {
			if len(n.keys) > 0 && n.keys[0] > key {
				break
			}
			touch(h, n)
		}
	}
	return out
}

// Range returns the row indices with lo <= key <= hi in key order (nil
// when there are none), allocated at their final length: a first leaf walk
// that charges nothing counts them, then the filling walk charges the
// descent and every leaf it reaches to h.
func (t *BTree) Range(h *cache.Hierarchy, lo, hi int64) []int32 {
	if lo > hi {
		return nil
	}
	n := 0
	t.rangeWalk(nil, lo, hi, func(int) { n++ })
	var out []int32
	if n > 0 {
		out = make([]int32, 0, n)
	}
	t.rangeWalk(h, lo, hi, func(r int) { out = append(out, int32(r)) })
	return out
}

// rangeWalk visits the rows with lo <= key <= hi in key order, charging the
// descent and each leaf it moves to against h.
func (t *BTree) rangeWalk(h *cache.Hierarchy, lo, hi int64, visit func(row int)) {
	n := t.descend(h, lo)
	for n != nil {
		i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= lo })
		for ; i < len(n.keys); i++ {
			if n.keys[i] > hi {
				return
			}
			visit(n.rows[i])
		}
		n = n.next
		if n != nil {
			touch(h, n)
		}
	}
}

// Insert adds one (key, row) entry. Nodes split top-down on the way back
// up; the tree stays balanced.
func (t *BTree) Insert(h *cache.Hierarchy, key int64, row int) {
	if t.entries == 0 {
		t.minKey, t.maxKey = key, key
		t.distinct = 1
	} else {
		if key < t.minKey {
			t.minKey = key
		}
		if key > t.maxKey {
			t.maxKey = key
		}
		if len(t.Lookup(nil, key)) == 0 {
			t.distinct++
		}
	}
	t.entries++
	promoted, sibling := t.insertInto(h, t.root, key, row)
	if sibling != nil {
		newRoot := t.newNode(false)
		newRoot.keys = []int64{t.root.minKey(), promoted}
		newRoot.children = []*node{t.root, sibling}
		t.root = newRoot
		t.height++
	}
}

func (n *node) minKey() int64 {
	if len(n.keys) == 0 {
		return 0
	}
	return n.keys[0]
}

// insertInto inserts and returns (separator, sibling) when the child split.
func (t *BTree) insertInto(h *cache.Hierarchy, n *node, key int64, row int) (int64, *node) {
	touch(h, n)
	if n.leaf {
		i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] > key })
		n.keys = append(n.keys, 0)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.rows = append(n.rows, 0)
		copy(n.rows[i+1:], n.rows[i:])
		n.rows[i] = row
		if len(n.keys) <= fanout {
			return 0, nil
		}
		// Split the leaf.
		mid := len(n.keys) / 2
		sib := t.newNode(true)
		sib.keys = append(sib.keys, n.keys[mid:]...)
		sib.rows = append(sib.rows, n.rows[mid:]...)
		n.keys = n.keys[:mid]
		n.rows = n.rows[:mid]
		sib.next = n.next
		n.next = sib
		return sib.keys[0], sib
	}

	i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] > key })
	if i == 0 {
		i = 1
		// Descending left of everything: lower the separator.
		if key < n.keys[0] {
			n.keys[0] = key
		}
	}
	promoted, sibling := t.insertInto(h, n.children[i-1], key, row)
	if sibling == nil {
		return 0, nil
	}
	n.keys = append(n.keys, 0)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = promoted
	n.children = append(n.children, nil)
	copy(n.children[i+1:], n.children[i:])
	n.children[i] = sibling
	if len(n.children) <= fanout {
		return 0, nil
	}
	// Split the internal node.
	mid := len(n.children) / 2
	sib := t.newNode(false)
	sib.keys = append(sib.keys, n.keys[mid:]...)
	sib.children = append(sib.children, n.children[mid:]...)
	sep := n.keys[mid]
	n.keys = n.keys[:mid]
	n.children = n.children[:mid]
	return sep, sib
}

// Validate checks the B+tree invariants: sorted keys, correct separators,
// balanced depth, and leaf-chain completeness. Tests call it after mutation.
func (t *BTree) Validate() error {
	depths := map[int]bool{}
	var walk func(n *node, depth int, lo, hi *int64) error
	walk = func(n *node, depth int, lo, hi *int64) error {
		for i := 1; i < len(n.keys); i++ {
			if n.keys[i-1] > n.keys[i] {
				return fmt.Errorf("index: unsorted keys at depth %d", depth)
			}
		}
		if lo != nil && len(n.keys) > 0 && n.keys[0] < *lo {
			return fmt.Errorf("index: key below separator at depth %d", depth)
		}
		if hi != nil && len(n.keys) > 0 && n.keys[len(n.keys)-1] > *hi {
			// Equality is legal: a run of duplicates may end exactly at the
			// next subtree's separator.
			return fmt.Errorf("index: key above upper separator at depth %d", depth)
		}
		if n.leaf {
			depths[depth] = true
			if len(n.rows) != len(n.keys) {
				return errors.New("index: leaf rows/keys mismatch")
			}
			return nil
		}
		if len(n.children) != len(n.keys) {
			return errors.New("index: internal children/keys mismatch")
		}
		for i, c := range n.children {
			var childLo, childHi *int64
			childLo = &n.keys[i]
			if i+1 < len(n.keys) {
				childHi = &n.keys[i+1]
			} else {
				childHi = hi
			}
			if err := walk(c, depth+1, childLo, childHi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 1, nil, nil); err != nil {
		return err
	}
	if len(depths) > 1 {
		return fmt.Errorf("index: leaves at multiple depths %v", depths)
	}
	return nil
}
