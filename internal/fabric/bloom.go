package fabric

// Bloom is a fabric-resident Bloom filter over canonical join-key bytes. The
// engine builds it from a join's build side and hands it to an Ephemeral
// view so probe rows that cannot possibly match are dropped near memory and
// never cross to the CPU. False positives only cost shipped bytes that the
// CPU-side probe rejects anyway; false negatives are impossible because both
// sides of the join encode keys through the same vec.AppendJoinKey* encoders.
type Bloom struct {
	bits []uint64
	mask uint64
	k    int
	n    int
}

// bloomHashesPerKey is the probe count; with ~10 bits per key this lands the
// false-positive rate around 1-2%, cheap enough to be pure upside for the
// pre-filter use case.
const bloomHashesPerKey = 4

// NewBloom sizes a filter for the expected number of distinct keys at ~10
// bits per key, rounded up to a power of two so probes are mask operations.
func NewBloom(expectedKeys int) *Bloom {
	bits := uint64(64)
	want := uint64(expectedKeys) * 10
	for bits < want {
		bits <<= 1
	}
	return &Bloom{
		bits: make([]uint64, bits/64),
		mask: bits - 1,
		k:    bloomHashesPerKey,
	}
}

// fnv64a is the 64-bit FNV-1a hash; the second value is the same hash over
// the bytes reversed, giving an independent-enough pair for double hashing.
func bloomHash(key []byte) (uint64, uint64) {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h1 := uint64(offset64)
	for _, b := range key {
		h1 ^= uint64(b)
		h1 *= prime64
	}
	h2 := uint64(offset64)
	for i := len(key) - 1; i >= 0; i-- {
		h2 ^= uint64(key[i])
		h2 *= prime64
	}
	// Double hashing degenerates when the step is even (it can only walk half
	// the table), so force it odd.
	h2 |= 1
	return h1, h2
}

// Add inserts a canonical key.
func (b *Bloom) Add(key []byte) {
	h1, h2 := bloomHash(key)
	for i := 0; i < b.k; i++ {
		pos := (h1 + uint64(i)*h2) & b.mask
		b.bits[pos>>6] |= 1 << (pos & 63)
	}
	b.n++
}

// MayContain reports whether key could have been added. A false result is
// definitive.
func (b *Bloom) MayContain(key []byte) bool {
	h1, h2 := bloomHash(key)
	for i := 0; i < b.k; i++ {
		pos := (h1 + uint64(i)*h2) & b.mask
		if b.bits[pos>>6]&(1<<(pos&63)) == 0 {
			return false
		}
	}
	return true
}

// Keys returns how many keys were added.
func (b *Bloom) Keys() int { return b.n }

// SemiJoin pre-filters a view's rows against a build-side Bloom filter. The
// fabric decodes column Col of each block of raw rows into a vec.Col and
// encodes its join keys with vec.Col.AppendJoinKey — the method the
// engine's hash join uses, so the canonical encoding lives in one place
// and the filter can never produce a false negative — and drops rows
// whose key cannot be in the filter. A key that can never join (a NaN
// DOUBLE) drops its row too.
type SemiJoin struct {
	Col    int
	Filter *Bloom
}
