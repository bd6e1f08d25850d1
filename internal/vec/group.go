package vec

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"

	"rfabric/internal/geometry"
	"rfabric/internal/table"
)

// Hash GROUP BY. A GroupTable maps each selected row's encoded group key to
// a dense group id (first-seen order) and folds the rows' aggregate inputs
// into per-group AggStates. Each group's states see that group's rows in
// selection order, which is row order, so every float fold is the same
// sequence of additions as a row-at-a-time fold's and the results are
// bit-identical. Once a batch's groups exist, assigning and folding it
// allocates nothing.

// The group-key format is fixed-width and order-preserving: per key column,
// an integer as 8 big-endian bytes with the sign bit flipped, a DOUBLE as 8
// big-endian orderBits, a CHAR as its NUL-padded field; then each DOUBLE's
// raw bits, little-endian, in column order. So bytes.Compare is the
// canonical group order (columns in turn: integers by value, DOUBLE by
// cmp.Compare, CHAR by pad-trimmed bytes; then the raw bits, which keep
// -0/+0 and NaN payloads distinct groups), and a key decodes back to its
// values bit for bit (KeyValue).

// AppendKeyF64 appends a DOUBLE's raw IEEE-754 bits, little-endian: the
// group key's tie-break suffix and, after -0 folding, the join key's form.
func AppendKeyF64(dst []byte, x float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
}

// orderBits maps a DOUBLE to bits whose unsigned order is cmp.Compare's:
// NaN is all zeros, -0 folds onto +0, a value >= 0 sets the top bit, and a
// negative value inverts every bit.
func orderBits(x float64) uint64 {
	switch {
	case x != x:
		return 0
	case x == 0:
		return 1 << 63
	case x > 0:
		return math.Float64bits(x) | 1<<63
	default:
		return ^math.Float64bits(x)
	}
}

// keyField is one key column's place in the table's keys: its ordered
// field at off, width bytes, and for DOUBLE its raw bits at raw.
type keyField struct {
	typ        geometry.ColumnType
	off, width int
	raw        int
}

// put writes the column's value into key: x for an integer, y for a DOUBLE,
// b for a CHAR.
func (f *keyField) put(key []byte, x int64, y float64, b []byte) {
	switch f.typ {
	case geometry.Float64:
		binary.BigEndian.PutUint64(key[f.off:], orderBits(y))
		binary.LittleEndian.PutUint64(key[f.raw:], math.Float64bits(y))
	case geometry.Char:
		clear(key[f.off+copy(key[f.off:f.off+f.width], b) : f.off+f.width])
	default:
		binary.BigEndian.PutUint64(key[f.off:], uint64(x)^1<<63)
	}
}

// KeyKind selects which KeyCol lane holds a key column.
type KeyKind uint8

// Key column kinds.
const (
	KeyInt   KeyKind = iota // I64 lane: BIGINT, INT, DATE
	KeyFloat                // F64 lane: DOUBLE
	KeyChar                 // in-place CHAR fields
)

// KeyCol is one group-key column of a batch, indexed by the selection's
// row positions: I64[r], F64[r], or the CHAR field
// Src[Off+r*Stride : Off+r*Stride+Width].
type KeyCol struct {
	Kind   KeyKind
	I64    []int64
	F64    []float64
	Src    []byte
	Off    int
	Stride int
	Width  int
}

// GroupTable maps group keys, in the format above for the key columns it
// learns at Reset, to dense group ids through a KeyIndex, and keeps each
// group's row count and aggregate states. The zero value is ready after
// Reset.
type GroupTable struct {
	nAggs   int
	cols    []geometry.Column
	fields  []keyField
	chars   int // bytes of CHAR fields per key
	idx     KeyIndex
	counts  []int64
	states  []AggState // nAggs per group, group-major
	created []int32
	buf     []byte
}

// Reset empties the table for a query with nAggs aggregate terms grouped
// on keys (only Type and Width are read), keeping its storage.
func (t *GroupTable) Reset(nAggs int, keys []geometry.Column) {
	t.nAggs = nAggs
	t.setKeys(keys)
	t.idx.Reset()
	t.counts = t.counts[:0]
	t.states = t.states[:0]
	t.created = t.created[:0]
}

// setKeys lays out the keys of columns cols: their ordered fields in turn,
// then the DOUBLE columns' raw bits.
func (t *GroupTable) setKeys(cols []geometry.Column) {
	t.cols = append(t.cols[:0], cols...)
	t.fields = t.fields[:0]
	t.chars = 0
	n := 0
	for _, c := range cols {
		f := keyField{typ: c.Type, off: n, width: 8}
		if c.Type == geometry.Char {
			f.width = c.Width
			t.chars += c.Width
		}
		n += f.width
		t.fields = append(t.fields, f)
	}
	for i := range t.fields {
		if f := &t.fields[i]; f.typ == geometry.Float64 {
			f.raw = n
			n += 8
		}
	}
	t.buf = slices.Grow(t.buf[:0], n)[:n]
}

// KeyColumns returns the key columns the table was Reset with.
func (t *GroupTable) KeyColumns() []geometry.Column { return t.cols }

// KeyValue returns key column k of group g, boxed as table.DecodeColumn
// decodes the column's field. A CHAR value is its NUL-padded field, a
// capacity-capped view of the table's storage that the next Reset reuses.
func (t *GroupTable) KeyValue(g, k int) table.Value {
	f, key := &t.fields[k], t.Key(g)
	v := table.Value{Type: f.typ}
	switch f.typ {
	case geometry.Float64:
		v.Float = math.Float64frombits(binary.LittleEndian.Uint64(key[f.raw:]))
	case geometry.Char:
		v.Bytes = key[f.off : f.off+f.width : f.off+f.width]
	default:
		v.Int = int64(binary.BigEndian.Uint64(key[f.off:]) ^ 1<<63)
	}
	return v
}

// KeyValues sets dst[i*n+k], n key columns per group, to key column k of
// group groups[i], as KeyValue does but with the CHAR values' bytes copied
// into one slab, so they outlive the table's storage.
func (t *GroupTable) KeyValues(dst []table.Value, groups []int32) {
	n, slab := len(t.fields), make([]byte, 0, len(groups)*t.chars)
	for i, g := range groups {
		for k := 0; k < n; k++ {
			v := t.KeyValue(int(g), k)
			if v.Type == geometry.Char {
				slab = append(slab, v.Bytes...)
				v.Bytes = slab[len(slab)-len(v.Bytes) : len(slab) : len(slab)]
			}
			dst[i*n+k] = v
		}
	}
}

// Len returns the number of groups.
func (t *GroupTable) Len() int { return len(t.counts) }

// Count returns group g's row count.
func (t *GroupTable) Count(g int) int64 { return t.counts[g] }

// State returns group g's state for aggregate term.
func (t *GroupTable) State(g, term int) AggState { return t.states[g*t.nAggs+term] }

// Key returns group g's encoded key.
func (t *GroupTable) Key(g int) []byte { return t.idx.Key(g) }

// States returns group g's states, one per aggregate term, for folding in
// place.
func (t *GroupTable) States(g int) []AggState {
	return t.states[g*t.nAggs : (g+1)*t.nAggs : (g+1)*t.nAggs]
}

// Created returns what created new groups in the last Assign or Merge, in
// group-id order: the selection positions of Assign's rows, or the ids in
// Merge's source of its groups. The first group created has id
// Len()-len(Created()).
func (t *GroupTable) Created() []int32 { return t.created }

// Assign sets ids[j] to the group of row sel[j], creating groups for keys
// not seen before, and counts each row into its group.
func (t *GroupTable) Assign(ids []int32, keys []KeyCol, sel []int32) {
	t.created = t.created[:0]
	b := t.buf
	for j, r := range sel {
		for k := range keys {
			switch kc, f := &keys[k], &t.fields[k]; kc.Kind {
			case KeyInt:
				f.put(b, kc.I64[r], 0, nil)
			case KeyFloat:
				f.put(b, 0, kc.F64[r], nil)
			default:
				o := kc.Off + int(r)*kc.Stride
				f.put(b, 0, 0, kc.Src[o:o+f.width])
			}
		}
		g, added := t.AssignKey(b)
		if added {
			t.created = append(t.created, r)
		}
		ids[j] = g
	}
}

// AssignKey is Assign for one row given its encoded key: it returns the
// row's group, reporting whether the key created it, and counts the row.
func (t *GroupTable) AssignKey(key []byte) (g int32, added bool) {
	g, added = t.group(key)
	t.counts[g]++
	return g, added
}

// group returns the group of an encoded key, creating it when new.
func (t *GroupTable) group(key []byte) (int32, bool) {
	g, added := t.idx.Lookup(key, true)
	if added {
		t.counts = append(t.counts, 0)
		t.states = append(t.states, make([]AggState, t.nAggs)...)
	}
	return g, added
}

// Merge folds src, a table of the same aggregate terms and key columns,
// into t in src's group order: each group is found by its encoded key,
// created when new, and its row count and states merged into t's
// (AggState.Merge). A t that has no groups yet takes src's key columns.
// Merging partitions' tables in partition order leaves the groups in
// first-seen order over all their rows.
func (t *GroupTable) Merge(src *GroupTable) {
	if t.Len() == 0 {
		t.setKeys(src.cols)
	}
	t.created = t.created[:0]
	for sg := range src.counts {
		g, added := t.group(src.Key(sg))
		if added {
			t.created = append(t.created, int32(sg))
		}
		t.counts[g] += src.counts[sg]
		dst := t.States(int(g))
		for a, st := range src.States(sg) {
			dst[a].Merge(st)
		}
	}
}

// KeyIndex is an open-addressing hash index from encoded keys to dense ids
// in first-insertion order, shared by the hash-group and hash-join tables.
// The zero value is an empty index.
type KeyIndex struct {
	slots  []int32 // id + 1; 0 marks an empty slot
	hashes []uint64
	keyEnd []int // id i's key is keys[keyEnd[i-1]:keyEnd[i]]
	keys   []byte
}

// Reset empties the index, keeping its storage.
func (x *KeyIndex) Reset() {
	clear(x.slots)
	x.hashes = x.hashes[:0]
	x.keyEnd = x.keyEnd[:0]
	x.keys = x.keys[:0]
}

// Len returns the number of distinct keys.
func (x *KeyIndex) Len() int { return len(x.hashes) }

// Key returns id i's encoded key.
func (x *KeyIndex) Key(i int) []byte {
	start := 0
	if i > 0 {
		start = x.keyEnd[i-1]
	}
	return x.keys[start:x.keyEnd[i]]
}

// Lookup returns the id of key. An absent key gets the next id when create
// is set (added reports that) and -1 otherwise. Without create, lookup
// does not write, so concurrent readers may share the index.
func (x *KeyIndex) Lookup(key []byte, create bool) (id int32, added bool) {
	if create && 2*(x.Len()+1) > len(x.slots) {
		x.grow()
	}
	if len(x.slots) == 0 {
		return -1, false
	}
	h := hashKey(key)
	mask := uint64(len(x.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := x.slots[i]
		if s == 0 {
			if !create {
				return -1, false
			}
			id := int32(x.Len())
			x.slots[i] = id + 1
			x.hashes = append(x.hashes, h)
			x.keys = append(x.keys, key...)
			x.keyEnd = append(x.keyEnd, len(x.keys))
			return id, true
		}
		if id := int(s - 1); x.hashes[id] == h && bytes.Equal(x.Key(id), key) {
			return int32(id), false
		}
	}
}

// grow doubles the slot array (minimum 64) and reinserts every key.
func (x *KeyIndex) grow() {
	n := 2 * len(x.slots)
	if n < 64 {
		n = 64
	}
	x.slots = make([]int32, n)
	mask := uint64(n - 1)
	for id, h := range x.hashes {
		i := h & mask
		for x.slots[i] != 0 {
			i = (i + 1) & mask
		}
		x.slots[i] = int32(id) + 1
	}
}

// hashKey mixes an encoded key 8 bytes at a time. The final mix carries
// high bits down to the ones the slot mask keeps: a big-endian group key
// holds a small integer in the top bits of its word.
func hashKey(b []byte) uint64 {
	h := 0x9e3779b97f4a7c15 ^ uint64(len(b))
	for len(b) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(b)) * 0xff51afd7ed558ccd
		h ^= h >> 29
		b = b[8:]
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	h = (h ^ h>>33) * 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

// FoldCount registers one row per id for a COUNT(*) term.
func (t *GroupTable) FoldCount(term int, ids []int32) {
	for _, g := range ids {
		t.states[int(g)*t.nAggs+term].Count++
	}
}

// FoldI64 folds lane[sel[j]] into group ids[j]'s state for term.
func (t *GroupTable) FoldI64(term int, ids []int32, lane []int64, sel []int32) {
	for j, r := range sel {
		t.states[int(ids[j])*t.nAggs+term].Add(float64(lane[r]))
	}
}

// FoldF64 folds lane[sel[j]] into group ids[j]'s state for term.
func (t *GroupTable) FoldF64(term int, ids []int32, lane []float64, sel []int32) {
	for j, r := range sel {
		t.states[int(ids[j])*t.nAggs+term].Add(lane[r])
	}
}

// FoldVals folds the compacted xs[j] into group ids[j]'s state for term.
func (t *GroupTable) FoldVals(term int, ids []int32, xs []float64) {
	for j, x := range xs {
		t.states[int(ids[j])*t.nAggs+term].Add(x)
	}
}
