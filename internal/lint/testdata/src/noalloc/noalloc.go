// Package noalloc is a gasperlint test fixture. Each want
// expectation comment asserts a diagnostic substring on that line; unannotated
// functions are never checked.
package noalloc

import "fmt"

//gasper:noalloc
func Hot(dst []uint64, n int) []uint64 {
	m := make([]uint64, n) // want "make allocates"
	_ = m
	s := []uint64{1, 2} // want "slice literal allocates"
	_ = s
	_ = fmt.Sprintf("%d", n) // want "fmt.Sprintf boxes its operands"
	dst = append(dst, 1)     // caller-owned destination: amortized zero
	var other []uint64
	other = append(other, 2) // want "append to a non-caller-owned slice"
	return append(dst, other...)
}

//gasper:noalloc
func Str(a, b string) int {
	c := a + b      // want "string concatenation allocates"
	bs := []byte(a) // want "string conversion copies its payload"
	return len(c) + len(bs)
}

type pair struct{ a, b int }

//gasper:noalloc
func Escapes() *pair {
	m := map[int]int{} // want "map literal allocates"
	_ = m
	return &pair{1, 2} // want "&composite literal escapes to the heap"
}

//gasper:noalloc
func Spawn(ch chan int) {
	go func() { ch <- 1 }() // want "go statement allocates a goroutine" "closure may capture and escape" "go statement runs concurrently"
}

//gasper:noalloc
func Waived() *int {
	return new(int) //gasper:alloc fixture: documented cold path
}

// cold is unannotated: allocations here are fine.
func cold() map[int]int { return map[int]int{} }
