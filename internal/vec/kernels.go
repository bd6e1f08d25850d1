package vec

// threeWay is the three-way compare of table.Value.Compare over a lane type;
// NaN compares as neither less nor greater.
func threeWay[T int64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// hashCharSeeded continues a CHAR hash from the precomputed column seed:
// bytes up to (excluding) the first NUL.
func hashCharSeeded(seed uint64, b []byte) uint64 {
	h := seed
	for _, c := range b {
		if c == 0 {
			break
		}
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// Lane arithmetic for derived aggregate expressions (compacted to the
// selection, Col.Compact): each row's value is computed with the same
// per-row operation order as Scalar.EvalF, so float results are
// bit-identical.

// FillF64 sets every element of dst to v.
func FillF64(dst []float64, v float64) {
	for i := range dst {
		dst[i] = v
	}
}

// AddLanes computes dst[i] += b[i].
func AddLanes(dst, b []float64) {
	for i := range dst {
		dst[i] += b[i]
	}
}

// SubLanes computes dst[i] -= b[i].
func SubLanes(dst, b []float64) {
	for i := range dst {
		dst[i] -= b[i]
	}
}

// MulLanes computes dst[i] *= b[i].
func MulLanes(dst, b []float64) {
	for i := range dst {
		dst[i] *= b[i]
	}
}
