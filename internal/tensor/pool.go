package tensor

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// The shared worker pool. All parallel kernels in this package — and any
// caller using Parallel — dispatch band tasks to a fixed set of worker
// goroutines instead of spawning goroutines per call. Tasks are plain structs
// sent by value over a buffered channel and completion groups are recycled
// through a free list, so a steady-state dispatch performs zero heap
// allocations. That matters: the training loop calls these kernels thousands
// of times per second and per-call goroutine + closure allocations would
// dominate the GC profile the nn workspace is designed to eliminate.

// kernelKind selects the band function a worker runs for a task. Kernel
// operands travel in the task struct itself (matrix headers by value) so the
// hot path never creates closures.
type kernelKind uint8

const (
	kFn kernelKind = iota
	kMatMul
	kMatMulTransAAccum
	kMatMulTransB
	kBatchMatMulCausal
	kBatchMatMulTransBCausal
	kBatchMatMulTransA
	kCausalSoftmax
	kCausalSoftmaxGrad
	kAttendDecode
)

// task is one band of work: run kernel `kind` over [lo, hi) of the outer
// dimension (rows for flat kernels, items for batched kernels).
type task struct {
	kind    kernelKind
	fn      func(lo, hi int) // kFn only; must be a persistent func value
	c, a, b Matrix           // operand headers by value (no allocation)
	scale   float32
	sl      []float32    // ALiBi slopes for the softmax kernels
	ditems  []DecodeItem // ragged work items for the decode kernel
	batch   int          // item count for batched kernels
	heads   int          // slope period for the softmax kernels
	lo, hi  int
	g       *group
}

// group is a recycled completion latch: remaining counts outstanding bands
// and done is signalled exactly once when the last band finishes.
type group struct {
	remaining atomic.Int32
	done      chan struct{}
}

var groupFree = struct {
	sync.Mutex
	free []*group
}{}

//photon:allocok
func getGroup(n int32) *group {
	groupFree.Lock()
	var g *group
	if k := len(groupFree.free); k > 0 {
		g = groupFree.free[k-1]
		groupFree.free = groupFree.free[:k-1]
	}
	groupFree.Unlock()
	if g == nil {
		g = &group{done: make(chan struct{}, 1)}
	}
	g.remaining.Store(n)
	return g
}

//photon:allocok
func putGroup(g *group) {
	groupFree.Lock()
	groupFree.free = append(groupFree.free, g)
	groupFree.Unlock()
}

var (
	poolOnce sync.Once
	poolSize int
	taskCh   chan task
)

// ensurePool starts the worker goroutines on first parallel dispatch. The
// pool is sized to the GOMAXPROCS observed at startup; dispatch still checks
// the live GOMAXPROCS so a later GOMAXPROCS(1) (e.g. testing.AllocsPerRun)
// degrades to inline execution.
//
//photon:allocok
func ensurePool() {
	poolOnce.Do(func() {
		poolSize = runtime.GOMAXPROCS(0)
		taskCh = make(chan task, 4*poolSize+16)
		for i := 0; i < poolSize; i++ {
			go func() {
				for t := range taskCh {
					runTask(&t)
					if t.g.remaining.Add(-1) == 0 {
						t.g.done <- struct{}{}
					}
				}
			}()
		}
	})
}

//photon:hotpath
func runTask(t *task) {
	switch t.kind {
	case kFn:
		// Parallel's contract requires fn to be a persistent func value, so
		// the indirect call itself allocates nothing.
		t.fn(t.lo, t.hi) //photon:nolint hotpath-alloc -- persistent func value per Parallel's contract
	case kMatMul:
		bandMatMul(&t.c, &t.a, &t.b, t.lo, t.hi)
	case kMatMulTransAAccum:
		bandMatMulTransAAccum(&t.c, &t.a, &t.b, t.lo, t.hi)
	case kMatMulTransB:
		bandMatMulTransB(&t.c, &t.a, &t.b, t.lo, t.hi)
	case kBatchMatMulCausal:
		bandBatchMatMul(&t.c, &t.a, &t.b, t.batch, t.lo, t.hi)
	case kBatchMatMulTransBCausal:
		bandBatchMatMulTransB(&t.c, &t.a, &t.b, t.batch, t.lo, t.hi)
	case kBatchMatMulTransA:
		bandBatchMatMulTransA(&t.c, &t.a, &t.b, t.batch, t.lo, t.hi)
	case kCausalSoftmax:
		bandCausalSoftmax(&t.a, t.heads, t.sl, t.scale, t.lo, t.hi)
	case kCausalSoftmaxGrad:
		bandCausalSoftmaxGrad(&t.c, &t.a, t.scale, t.lo, t.hi)
	case kAttendDecode:
		bandAttendDecode(t.ditems, t.scale, t.lo, t.hi)
	}
}

// maxInt is the saturation ceiling for volume-hint arithmetic.
const maxInt = math.MaxInt

// satMul returns a*b for non-negative operands, saturating at maxInt instead
// of overflowing. Volume hints are products like rows·cols·cols which exceed
// int64 for paper-scale shapes; the hint only gates the parallel/serial
// decision so saturation is exactly the right semantics.
//
//photon:hotpath
func satMul(a, b int) int {
	if a == 0 || b == 0 {
		return 0
	}
	if a > maxInt/b {
		return maxInt
	}
	return a * b
}

// dispatch splits [0, items) into bands of bandStep items and runs kernel t
// on the pool, executing serially inline when the flop volume does not
// justify the fan-out or bandStep leaves one band. The caller runs the first
// band itself so a dispatch never leaves the calling core idle.
//
//photon:hotpath
func dispatch(items, volumePerItem int, t task) {
	if items <= 0 {
		return
	}
	step := items
	if runtime.GOMAXPROCS(0) > 1 && satMul(items, volumePerItem) >= parallelThreshold {
		ensurePool()
		step = bandStep(items, rowTile(t.kind), poolSize)
	}
	if step >= items {
		t.lo, t.hi = 0, items
		runTask(&t)
		return
	}
	g := getGroup(int32((items + step - 1) / step))
	for lo := step; lo < items; lo += step {
		hi := lo + step
		if hi > items {
			hi = items
		}
		t.lo, t.hi, t.g = lo, hi, g
		taskCh <- t
	}
	// Run the first band on the calling goroutine.
	t.lo, t.hi = 0, step
	if t.hi > items {
		t.hi = items
	}
	runTask(&t)
	if g.remaining.Add(-1) != 0 {
		<-g.done
	}
	putGroup(g)
}

// bandStep is the band length dispatch cuts [0, items) into across workers
// cores for a kernel whose row tile is tile: items split evenly, rounded up
// to whole tiles, so the split never drops rows to the remainder loops. With
// fewer than two tiles' worth of items some band would hold less than a
// tile, so the items stay in one band: a 4-row A·Bᵀ product split 3/1 took
// 7.0 µs against 4.1 µs inline (a serve decode shard's logits,
// 4×64·(256×64)ᵀ at 2 cores).
//
//photon:hotpath
func bandStep(items, tile, workers int) int {
	if items < 2*tile || workers < 2 {
		return items
	}
	bands := min(workers, items)
	step := (items + bands - 1) / bands
	if step%tile != 0 {
		step += tile - step%tile
	}
	return step
}

// rowTile is the number of rows kernel k's micro-kernel computes together:
// tile4x16's four C rows for the A·B and Aᵀ·B products, dot3x4's three for
// A·Bᵀ. A band cut below it sends those rows through the remainder loops,
// which stream the other operand once per row or pair instead of once per
// tile. A serve decode shard's 4-row MLP products sit at the fan-out
// threshold; cut into two 2-row bands they were slower than one band on one
// core. An 8-row serve logits product, 8×64·(256×64)ᵀ at 2 cores, took
// 10.0 µs split 6/2, 10.9 µs split 4/4 and 14.2 µs in dot4x2 pairs.
//
//photon:hotpath
func rowTile(k kernelKind) int {
	switch k {
	case kMatMul, kMatMulTransAAccum:
		return 4
	case kMatMulTransB:
		return 3
	}
	return 1
}

// Parallel runs fn over contiguous bands of [0, items) on the package worker
// pool, or inline when items·volumePerItem is too small to amortize the
// fan-out. fn must be safe for concurrent invocation on disjoint bands.
// Callers on the training hot path should pass a persistent func value (one
// stored in a struct field at construction) — a fresh closure per call heap-
// allocates its capture block and defeats the zero-allocation step guarantee.
//
//photon:hotpath
func Parallel(items, volumePerItem int, fn func(lo, hi int)) {
	dispatch(items, volumePerItem, task{kind: kFn, fn: fn})
}
