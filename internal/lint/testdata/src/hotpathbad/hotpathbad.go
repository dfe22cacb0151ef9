// Package hotpathbad is a golden fixture: every line carrying a want marker
// must be flagged by the hotpath-alloc analyzer, whose message must contain
// the marker's quoted substring.
package hotpathbad

import "fmt"

//photon:hotpath
func makesSlice(n int) []int {
	return make([]int, n) // want "make in hotpath function makesSlice allocates"
}

//photon:hotpath
func appends(s []int, v int) []int {
	return append(s, v) // want "append in hotpath function appends allocates"
}

//photon:hotpath
func news() *int {
	return new(int) // want "new in hotpath function news allocates"
}

//photon:hotpath
func closes() func() int {
	x := 1
	return func() int { return x } // want "closure literal in hotpath function closes"
}

//photon:hotpath
func spawns(ch chan int) {
	go func() { ch <- 1 }() // want "go statement in hotpath function spawns"
}

//photon:hotpath
func sliceLit() []int {
	return []int{1, 2, 3} // want "slice literal in hotpath function sliceLit allocates"
}

//photon:hotpath
func mapLit() map[string]int {
	return map[string]int{"a": 1} // want "map literal in hotpath function mapLit allocates"
}

type point struct{ x, y int }

//photon:hotpath
func escapes() *point {
	return &point{1, 2} // want "&composite literal in hotpath function escapes escapes to the heap"
}

//photon:hotpath
func concats(a, b string) string {
	return a + b // want "string concatenation in hotpath function concats allocates"
}

//photon:hotpath
func boxes(n int) interface{} {
	return n // want "boxes int into interface"
}

//photon:hotpath
func converts(b []byte) string {
	return string(b) // want "conversion in hotpath function converts copies and allocates"
}

//photon:hotpath
func inserts(m map[string]int) {
	m["k"] = 1 // want "map insert in hotpath function inserts may allocate"
}

//photon:hotpath
func formats(n int) string {
	return fmt.Sprintf("%d", n) // want "calls fmt.Sprintf outside the non-allocating stdlib whitelist"
}

// unannotated is a plain module function: calling it from a hotpath is an
// unverified edge in the call graph.
func unannotated() {}

//photon:hotpath
func callsUnannotated() {
	unannotated() // want "neither //photon:hotpath nor //photon:allocok"
}

//photon:hotpath
func dynamic(f func() int) int {
	return f() // want "dynamic call through function value f"
}

type doer interface{ Do() }

//photon:hotpath
func viaInterface(d doer) {
	d.Do() // want "call through interface method Do"
}

type thing struct{}

func (thing) work() {}

//photon:hotpath
func methodValue(t thing) func() {
	return t.work // want "method value t.work in hotpath function methodValue"
}

//photon:hotpath
func variadicCall(vals ...int) int {
	s := 0
	for _, v := range vals {
		s += v
	}
	return s
}

//photon:hotpath
func spreadsVariadic() int {
	return variadicCall(1, 2, 3) // want "variadic call in hotpath function spreadsVariadic allocates the argument slice"
}

// scaleAsm is a body-less (assembly) declaration nobody vouched for.
func scaleAsm(x *float32, n int)

//photon:hotpath
func callsUnannotatedAsm(x []float32) {
	scaleAsm(&x[0], len(x)) // want "neither //photon:hotpath nor //photon:allocok"
}
