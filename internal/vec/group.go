package vec

import (
	"bytes"
	"encoding/binary"
	"math"

	"rfabric/internal/expr"
	"rfabric/internal/geometry"
	"rfabric/internal/table"
)

// Hash GROUP BY. A GroupTable maps each selected row's encoded group key to
// a dense group id (first-seen order) and folds the rows' aggregate inputs
// into per-group state lanes that hold only what each term's kind reads.
// Each group's lanes see that group's rows in selection order, which is
// row order, so every float fold is the same sequence of additions as a
// row-at-a-time fold's and the results are bit-identical. Once a batch's
// groups exist, assigning and folding it allocates nothing.

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

// GroupTable maps group keys, in the format above for the key columns it
// learns at Reset, to dense group ids through a KeyIndex, and keeps each
// group's aggregate state in lanes by kind: AggState's fields that the
// term's kind reads, and no others. A group's words are its row count,
// which is every COUNT's result and every AVG's divisor (columns hold no
// NULLs); then one float64, by its bits, per SUM, AVG, MIN or MAX term, in
// term order; then the MIN and MAX terms' flag bytes (extAny,
// extNaNFirst), eight to a word. A COUNT term keeps nothing more. The
// words are group-major in one slice, so all of a group's state grows
// with one append. The zero value is ready after Reset.
type GroupTable struct {
	kinds   []expr.AggKind // the caller's, kept from Reset
	nVals   int            // values per group: one per non-COUNT term
	width   int            // words per group: count, values, flag words
	cols    []geometry.Column
	fields  []keyField
	chars   int // bytes of CHAR fields per key
	idx     KeyIndex
	words   []uint64 // width per group, group-major
	created []int32
	keyLen  int
	batch   []byte // a batch's keys, keyLen bytes per row
}

// Reset empties the table for a query whose aggregate terms have kinds,
// grouped on keys (only Type and Width are read), keeping its storage. The
// table keeps kinds, which must not change while it is in use.
func (t *GroupTable) Reset(kinds []expr.AggKind, keys []geometry.Column) {
	t.kinds = kinds
	vals, flags := stateOf(kinds)
	t.nVals, t.width = vals, 1+vals+(flags+7)/8
	t.setKeys(keys)
	t.idx.Reset()
	t.words = t.words[:0]
	t.created = t.created[:0]
}

// stateOf counts the values and the flag bytes that terms of kinds keep.
func stateOf(kinds []expr.AggKind) (vals, flags int) {
	for _, k := range kinds {
		if k != expr.Count {
			vals++
		}
		if k == expr.Min || k == expr.Max {
			flags++
		}
	}
	return vals, flags
}

// lane locates term's state in a group's words: its value word, and for a
// MIN or MAX term its flag word and the flag byte's shift in it.
func (t *GroupTable) lane(term int) (val, flagWord int, shift uint) {
	vals, flags := stateOf(t.kinds[:term])
	return 1 + vals, 1 + t.nVals + flags/8, uint(8 * (flags % 8))
}

// flagAt returns the flag byte at shift of word w.
func flagAt(w uint64, shift uint) uint8 { return uint8(w >> shift) }

// withFlag returns word w with its flag byte at shift set to f.
func withFlag(w uint64, shift uint, f uint8) uint64 {
	return w&^(0xff<<shift) | uint64(f)<<shift
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
	t.keyLen = n
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
func (t *GroupTable) Len() int { return len(t.words) / t.width }

// Count returns group g's row count.
func (t *GroupTable) Count(g int) int64 { return int64(t.words[g*t.width]) }

// State returns group g's state for aggregate term as an AggState that
// finalizes (Result) as the term's kind: its Count, and the one value and
// flags the kind keeps.
func (t *GroupTable) State(g, term int) AggState {
	row := t.words[g*t.width : (g+1)*t.width]
	a := AggState{Count: int64(row[0])}
	v, fw, sh := t.lane(term)
	switch t.kinds[term] {
	case expr.Sum, expr.Avg:
		a.Sum = math.Float64frombits(row[v])
	case expr.Min:
		a.Min, a.flags = math.Float64frombits(row[v]), flagAt(row[fw], sh)
	case expr.Max:
		a.Max, a.flags = math.Float64frombits(row[v]), flagAt(row[fw], sh)
	}
	return a
}

// Key returns group g's encoded key.
func (t *GroupTable) Key(g int) []byte { return t.idx.Key(g) }

// Created returns what created new groups in the last Assign or Merge, in
// group-id order: the selection positions of Assign's rows, or the ids in
// Merge's source of its groups. The first group created has id
// Len()-len(Created()).
func (t *GroupTable) Created() []int32 { return t.created }

// Assign sets ids[j] to the group of row sel[j] of the key columns,
// creating groups for keys not seen before, and counts each row into its
// group. The batch's keys are encoded column by column, then looked up.
func (t *GroupTable) Assign(ids []int32, keys []Col, sel []int32) {
	n := t.keyLen
	t.batch = grow(t.batch, max(len(sel), BatchRows)*n)
	for k := range keys {
		keys[k].putKeys(t.batch, n, &t.fields[k], sel)
	}
	t.created = t.created[:0]
	for j, r := range sel {
		g, added := t.group(t.batch[j*n : (j+1)*n])
		if added {
			t.created = append(t.created, r)
		}
		t.words[int(g)*t.width]++
		ids[j] = g
	}
}

// group returns the group of an encoded key, creating it when new. The
// words double when they fill, so a statement's growing table copies and
// allocates about twice its final state, not the five times append's
// gentler growth of large slices costs.
func (t *GroupTable) group(key []byte) (int32, bool) {
	g, added := t.idx.Lookup(key, true)
	if added {
		n := len(t.words)
		if n+t.width > cap(t.words) {
			t.words = append(make([]uint64, 0, 2*(n+t.width)), t.words...)
		}
		t.words = t.words[:n+t.width]
		clear(t.words[n:])
	}
	return g, added
}

// Merge folds src, a table of the same aggregate kinds and key columns,
// into t in src's group order: each group is found by its encoded key,
// created when new, and its row count and lanes merged into t's by
// AggState.Merge's rules. A t that has no groups yet takes src's key
// columns. Merging partitions' tables in partition order leaves the
// groups in first-seen order over all their rows.
func (t *GroupTable) Merge(src *GroupTable) {
	if t.Len() == 0 {
		t.setKeys(src.cols)
	}
	t.created = t.created[:0]
	for sg := range src.Len() {
		g, added := t.group(src.Key(sg))
		if added {
			t.created = append(t.created, int32(sg))
		}
		t.mergeGroup(t.words[int(g)*t.width:(int(g)+1)*t.width], src.words[sg*t.width:(sg+1)*t.width])
	}
}

// mergeGroup folds a src group's words o into a group's words w: counts
// and sums add, and MIN and MAX merge by mergeExt.
func (t *GroupTable) mergeGroup(w, o []uint64) {
	w[0] += o[0]
	for term, kind := range t.kinds {
		switch kind {
		case expr.Sum, expr.Avg:
			v, _, _ := t.lane(term)
			w[v] = math.Float64bits(math.Float64frombits(w[v]) + math.Float64frombits(o[v]))
		case expr.Min, expr.Max:
			v, fw, sh := t.lane(term)
			m, f := mergeExt(math.Float64frombits(w[v]), flagAt(w[fw], sh),
				math.Float64frombits(o[v]), flagAt(o[fw], sh), kind == expr.Max)
			w[v], w[fw] = math.Float64bits(m), withFlag(w[fw], sh, f)
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

// FoldVals folds the compacted xs[j] into group ids[j]'s lane for term.
func (t *GroupTable) FoldVals(term int, ids []int32, xs []float64) {
	for len(xs) > 0 {
		n := min(len(xs), BatchRows)
		fold(t, term, ids[:n], xs[:n], identity[:n])
		ids, xs = ids[n:], xs[n:]
	}
}

// identity is the selection 0..BatchRows-1, for folding compacted values.
var identity = func() []int32 {
	s := make([]int32, BatchRows)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}()

// fold folds row sel[j]'s value of lane into group ids[j]'s lane for term,
// one loop per kind; a COUNT term keeps nothing beyond the group's count.
func fold[T int64 | float64](t *GroupTable, term int, ids []int32, lane []T, sel []int32) {
	words, w := t.words, t.width
	v, fw, sh := t.lane(term)
	switch kind := t.kinds[term]; kind {
	case expr.Sum, expr.Avg:
		for j, r := range sel {
			i := int(ids[j])*w + v
			words[i] = math.Float64bits(math.Float64frombits(words[i]) + float64(lane[r]))
		}
	case expr.Min, expr.Max:
		max := kind == expr.Max
		for j, r := range sel {
			g := int(ids[j]) * w
			m, f := foldExt(math.Float64frombits(words[g+v]), flagAt(words[g+fw], sh), float64(lane[r]), max)
			words[g+v], words[g+fw] = math.Float64bits(m), withFlag(words[g+fw], sh, f)
		}
	}
}

// DecodeKeyCol sets dst to key column k of every group, in group order, as the
// group table's keys hold it: a CHAR column reads its fields in place.
func (t *GroupTable) DecodeKeyCol(dst *Col, k int) {
	f, n := &t.fields[k], t.Len()
	dst.Reset(t.cols[k], n)
	keys := t.idx.keys
	switch dst.Type {
	case geometry.Float64:
		dst.Decode(keys, f.raw, t.keyLen, n)
	case geometry.Char:
		dst.Src, dst.Off, dst.Stride = keys, f.off, t.keyLen
	default:
		for g := range dst.I64 {
			dst.I64[g] = int64(binary.BigEndian.Uint64(keys[g*t.keyLen+f.off:]) ^ 1<<63)
		}
	}
}

// FinishAggCol sets dst to every group's result for aggregate term,
// finalized as its kind by AggState.Result's rules: BIGINT for COUNT,
// DOUBLE otherwise.
func (t *GroupTable) FinishAggCol(dst *Col, term int) {
	n, kind, words, w := t.Len(), t.kinds[term], t.words, t.width
	if kind == expr.Count {
		dst.Reset(geometry.Column{Type: geometry.Int64, Width: 8}, n)
		for g := range dst.I64 {
			dst.I64[g] = int64(words[g*w])
		}
		return
	}
	dst.Reset(geometry.Column{Type: geometry.Float64, Width: 8}, n)
	v, fw, sh := t.lane(term)
	switch kind {
	case expr.Sum:
		for g := range dst.F64 {
			dst.F64[g] = finishSum(math.Float64frombits(words[g*w+v]))
		}
	case expr.Avg:
		for g := range dst.F64 {
			dst.F64[g] = finishAvg(math.Float64frombits(words[g*w+v]), int64(words[g*w]))
		}
	default:
		for g := range dst.F64 {
			dst.F64[g] = finishExt(math.Float64frombits(words[g*w+v]), flagAt(words[g*w+fw], sh))
		}
	}
}
