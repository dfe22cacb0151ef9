// Package hotpathgood is a golden fixture: the hotpath-alloc analyzer must
// report nothing here. It exercises the idioms hotpath code is allowed to
// use — the allocok escape hatch, the non-allocating stdlib whitelist,
// method calls (as opposed to method values), panic arguments, and
// documented //photon:nolint suppressions.
package hotpathgood

import (
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// grow is the sanctioned amortized-allocation boundary: hotpath callers may
// invoke it even though it allocates.
//
//photon:allocok
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n, n+n/2)
	}
	return buf[:n]
}

//photon:hotpath
func usesEscapeHatch(buf []float64, n int) []float64 {
	buf = grow(buf, n)
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

//photon:hotpath
func callsWhitelistedStdlib(x float64, n uint) float64 {
	return math.Sqrt(x) * float64(bits.OnesCount(n))
}

type counter struct {
	mu sync.Mutex
	v  atomic.Int64
}

//photon:hotpath
func (c *counter) bump() int64 {
	c.mu.Lock()
	n := c.v.Add(1)
	c.mu.Unlock()
	return n
}

type widget struct{ n int }

//photon:hotpath
func (w *widget) step() { w.n++ }

// methodCall invokes step as a call — unlike a method *value*, this binds
// nothing and is allocation-free.
//
//photon:hotpath
func methodCall(w *widget) {
	w.step()
}

// spinUntil is a spin-wait hand-off: an atomic flag re-checked with the
// processor yielded between checks.
//
//photon:hotpath
func spinUntil(flag *atomic.Bool, budget time.Duration) bool {
	for start := time.Now(); time.Since(start) < budget; runtime.Gosched() {
		if flag.Load() {
			return true
		}
	}
	return false
}

//photon:hotpath
func timesThings(start time.Time) int64 {
	return time.Since(start).Nanoseconds()
}

//photon:hotpath
func injectedRand(rng *rand.Rand) float64 {
	return rng.Float64()
}

//photon:hotpath
func panicsOnBadInput(n int) int {
	if n < 0 {
		panic("hotpathgood: negative n") // failure path: panic args are exempt
	}
	return n * 2
}

//photon:hotpath
func suppressed(s []int, v int) []int {
	return append(s, v) //photon:nolint hotpath-alloc -- fixture: documented amortized growth
}

//photon:hotpath
func hotCallsHot(w *widget) {
	methodCall(w)
}

// foldWeighted mirrors the async aggregation buffer fold (buf += w*u over
// preallocated slices): a pure range loop with a multiply-add is the shape
// hotpath bodies should take, and it must stay report-free.
//
//photon:hotpath
func foldWeighted(buf, u []float32, w float32) {
	for i := range u {
		buf[i] += w * u[i]
	}
}

// sumAsm is a body-less (assembly) declaration: its annotation is the
// author's claim, and hotpath callers may rely on it.
//
//go:noescape
//photon:hotpath
func sumAsm(x *float32, n int) float32

//photon:hotpath
func callsAnnotatedAsm(x []float32) float32 {
	return sumAsm(&x[0], len(x))
}
