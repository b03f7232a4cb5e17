package mathx

// Linspace returns n evenly spaced values from a to b inclusive. n must be
// at least 2 for a meaningful range; n <= 1 returns []float64{a}.
func Linspace(a, b float64, n int) []float64 {
	if n <= 1 {
		return []float64{a}
	}
	out := make([]float64, n)
	step := (b - a) / float64(n-1)
	for i := range out {
		out[i] = a + float64(i)*step
	}
	out[n-1] = b
	return out
}

// Clamp limits x to the interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
