package vec

import (
	"encoding/binary"
	"math"
)

// Hash join. A JoinTable indexes a build side's entries by encoded join key:
// each distinct key heads a chain of entry ids in insertion order, so a
// probe visits a key's matches in the order the build side produced them.
// The entries' column values live with the caller; the table holds only the key index
// and the chains. Lookups do not write, so probes on many goroutines may
// share one built table.

// The join-key encoding: integer
// family values as 8 little-endian bytes of the sign-extended value (so INT,
// BIGINT, and DATE keys join across widths), DOUBLE as its IEEE-754 bits
// with -0 folded onto +0 (NaN never matches, per SQL equality), CHAR as its
// bytes with trailing NUL padding trimmed (embedded NULs are significant).
// Unlike the group key it need not order, and Bloom filters hash its bytes.

// AppendJoinKeyI64 appends the join-key encoding of an integer-family value.
func AppendJoinKeyI64(dst []byte, x int64) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(x))
}

// AppendJoinKeyF64 appends the join-key encoding of a DOUBLE value, or
// reports false for NaN, which matches nothing.
func AppendJoinKeyF64(dst []byte, x float64) ([]byte, bool) {
	if math.IsNaN(x) {
		return dst, false
	}
	if x == 0 {
		x = 0 // fold -0 onto +0
	}
	return AppendKeyF64(dst, x), true
}

// AppendJoinKeyChar appends the join-key encoding of a CHAR field.
func AppendJoinKeyChar(dst, b []byte) []byte { return append(dst, TrimPad(b)...) }

// JoinTable is a build side's key index: distinct join keys in first-seen
// order, each with the chain of entry ids inserted under it. The zero value
// is an empty table.
type JoinTable struct {
	idx  KeyIndex
	head []int32 // per distinct key: its first entry
	tail []int32 // per distinct key: its last entry
	next []int32 // per entry: the key's following entry, or -1
}

// Keys returns the number of distinct keys.
func (t *JoinTable) Keys() int { return t.idx.Len() }

// Key returns distinct key i's encoding.
func (t *JoinTable) Key(i int) []byte { return t.idx.Key(i) }

// Insert appends an entry under key; entries are numbered from 0 in
// insertion order.
func (t *JoinTable) Insert(key []byte) {
	e := int32(len(t.next))
	t.next = append(t.next, -1)
	k, added := t.idx.Lookup(key, true)
	if added {
		t.head = append(t.head, e)
		t.tail = append(t.tail, e)
		return
	}
	t.next[t.tail[k]] = e
	t.tail[k] = e
}

// Find returns the first entry inserted under key, or -1.
func (t *JoinTable) Find(key []byte) int32 {
	k, _ := t.idx.Lookup(key, false)
	if k < 0 {
		return -1
	}
	return t.head[k]
}

// Next returns the entry inserted under the same key after e, or -1.
func (t *JoinTable) Next(e int32) int32 { return t.next[e] }
