// Package detsource is a gasperlint test fixture. Each want
// expectation comment asserts a diagnostic substring on that line.
package detsource

import (
	"math/rand"
	"time"
)

func clock() time.Duration {
	start := time.Now()      // want "time.Now reads the wall clock"
	return time.Since(start) // want "time.Since reads the wall clock"
}

func waivedClock() time.Time {
	return time.Now() //gasper:nondet fixture: provenance metadata only
}

func globalRand() int {
	return rand.Intn(6) // want "global rand.Intn draws from the process-wide source"
}

func seededRand(r *rand.Rand) int {
	return r.Intn(6) // a method on a seeded source is deterministic
}

func seededConstructor(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed)) // constructors build seeded sources
}

func fanIn(a, b chan int) int {
	select { // want "select with 2 communication cases fires in runtime-randomized order"
	case x := <-a:
		return x
	case x := <-b:
		return x
	}
}

func waivedFanIn(done chan struct{}, v chan int) int {
	//gasper:nondet fixture: cancellation only; the value path is deterministic
	select {
	case x := <-v:
		return x
	case <-done:
		return 0
	}
}

func fanOut(work func(int), n int) {
	for i := range n {
		go work(i) // want "go statement runs concurrently with its caller"
	}
}

func waivedFanOut(work func(int) int, n int) []int {
	out := make([]int, n)
	done := make(chan struct{})
	for i := range n {
		//gasper:nondet fixture: each goroutine writes its own index's slot, read after all are done
		go func() {
			out[i] = work(i)
			done <- struct{}{}
		}()
	}
	for range n {
		<-done
	}
	return out
}

//gasper:bogus unknown verbs are diagnostics too // want "unknown directive"
func typo() {}
