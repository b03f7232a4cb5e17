// Package detrange is a gasperlint test fixture. Each want
// expectation comment asserts a diagnostic substring on that line; lines
// without one must stay clean.
package detrange

import (
	"maps"
	"slices"
)

// hash folds map values with a non-commutative polynomial: iteration order
// changes the result.
func hash(m map[string]int) int {
	out := 0
	for _, v := range m { // want "range over a map follows map iteration order"
		out = out*31 + v
	}
	return out
}

// floatSum accumulates floats: addition is not associative, so the sum
// drifts with iteration order.
func floatSum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m { // want "range over a map follows map iteration order"
		sum += v
	}
	return sum
}

// keys ranges over the maps.Keys iterator, which yields in map order.
func keys(m map[string]int) []string {
	var out []string
	for k := range maps.Keys(m) { // want "range over maps.Keys follows map iteration order"
		out = append(out, k)
	}
	return out
}

// pairs ranges over the maps.All iterator.
func pairs(m map[string]int) int {
	out := 0
	for k, v := range maps.All(m) { // want "range over maps.All follows map iteration order"
		out = out*31 + len(k) + v
	}
	return out
}

// sortedKeys ranges over a sorted slice of the keys: deterministic.
func sortedKeys(m map[string]int) []string {
	var out []string
	for _, k := range slices.Sorted(maps.Keys(m)) {
		out = append(out, k)
	}
	return out
}

// waived carries a reason the order cannot be observed.
func waived(m map[string]int) int {
	total := 0
	//gasper:ordered fixture: commutative integer sum
	for _, v := range m {
		total += v
	}
	return total
}

// staleWaiver waives a slice range, which needs no waiver.
func staleWaiver(xs []int) int {
	total := 0
	//gasper:ordered fixture: nothing here ranges over a map // want "unused //gasper:ordered waiver"
	for _, x := range xs {
		total += x
	}
	return total
}
