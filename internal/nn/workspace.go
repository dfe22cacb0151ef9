package nn

import "photon/internal/tensor"

// Workspace is an arena of size-keyed scratch matrices that makes the
// steady-state training step allocation-free. Every intermediate a forward or
// backward pass needs — activations, gradients, per-head attention panels —
// is taken from the workspace instead of the heap; Reset (called at the top
// of each Loss / ForwardBackward) returns everything taken since the last
// Reset to the free lists for reuse.
//
// Lifetime contract: a matrix obtained from Take is valid until the next
// Reset of the same workspace. That is exactly the window a training step
// needs — layers cache forward activations in workspace matrices and read
// them during backward, and the next step's Reset recycles the lot. After
// the first step every Take is served from a free list, so a warm step
// performs zero heap allocations (asserted by TestTrainStepZeroAlloc).
//
// A Workspace is owned by a single Model or Decoder and is not safe for
// concurrent use; concurrent replicas (DDP workers, federated clients) each
// own their model and therefore their workspace, and concurrent decoders over
// one model each own theirs.
type Workspace struct {
	free map[int][]*tensor.Matrix // element count -> recycled matrices
	used []*tensor.Matrix         // taken since the last Reset

	// Retention bound. Fixed-shape training reuses the same size buckets
	// every step, but variable-shape callers (Generate's per-token growing
	// context) would otherwise strand a full activation set under every
	// distinct sequence length forever. retained counts elements parked in
	// free lists; when it exceeds evictFactor× the largest single step seen,
	// the free lists are dropped wholesale and the GC reclaims them.
	retained  int
	stepElems int // elements returned by the current Reset
	maxStep   int // largest step observed

	// sizeClasses switches Take to power-of-two bucket rounding — the
	// cache-aware retention policy for KV-cached decoding, whose attention
	// scratch grows by one column per generated token. Under exact-size
	// buckets every decode step would miss the free lists (no two steps
	// share a probs size) and allocate; under size classes at most
	// log2(maxSeq) distinct buckets exist per shape, so once they are warm
	// a steady-state decode step allocates nothing. NewDecoder sets it on
	// the empty workspace; training leaves it off, since every step reuses
	// identical shapes and exact-size buckets waste nothing.
	sizeClasses bool
}

// evictFactor bounds free-list retention at this multiple of the largest
// single-step working set. Steady-state training retains exactly 1× and
// never evicts (keeping the zero-allocation guarantee); shape-churning
// callers are bounded instead of monotonic.
const evictFactor = 3

// NewWorkspace creates an empty workspace.
//
//photon:allocok
func NewWorkspace() *Workspace {
	return &Workspace{free: make(map[int][]*tensor.Matrix)}
}

// Reset returns every matrix taken since the last Reset to the free lists,
// invalidating all outstanding references from this workspace.
//
//photon:allocok
func (w *Workspace) Reset() {
	w.stepElems = 0
	for i, m := range w.used {
		n := cap(m.Data)
		w.stepElems += n
		w.free[n] = append(w.free[n], m)
		w.used[i] = nil
	}
	w.used = w.used[:0]
	w.retained += w.stepElems
	if w.stepElems > w.maxStep {
		w.maxStep = w.stepElems
	}
	if w.retained > evictFactor*w.maxStep {
		clear(w.free)
		w.retained = 0
	}
}

// sizeClass rounds n up to the next power of two.
func sizeClass(n int) int {
	c := 1
	for c < n {
		c <<= 1
	}
	return c
}

// Take returns a rows×cols matrix with unspecified contents, recycling a
// buffer of the same bucket (exact element count, or the covering power-of-
// two size class under the decode retention policy) when one is free.
//
//photon:allocok
func (w *Workspace) Take(rows, cols int) *tensor.Matrix {
	n := rows * cols
	alloc := n
	if w.sizeClasses && n > 0 {
		alloc = sizeClass(n)
	}
	var m *tensor.Matrix
	if bucket := w.free[alloc]; len(bucket) > 0 {
		m = bucket[len(bucket)-1]
		bucket[len(bucket)-1] = nil
		w.free[alloc] = bucket[:len(bucket)-1]
		m.Rows, m.Cols = rows, cols
		m.Data = m.Data[:n]
		w.retained -= alloc
	} else if alloc == n {
		m = tensor.NewMatrix(rows, cols)
	} else {
		m = &tensor.Matrix{Rows: rows, Cols: cols, Data: make([]float32, alloc)[:n]}
	}
	w.used = append(w.used, m)
	return m
}

// growF32 is the cap-grow pattern for flat scratch vectors: reuse the backing
// array when it is large enough, reallocate with 50% slack when it is not so
// monotonically growing callers (Generate's per-token context) amortize
// instead of reallocating every call.
//
//photon:allocok
func growF32(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n, n+n/2)
	}
	return buf[:n]
}

// growF64 is growF32 for float64 slices.
//
//photon:allocok
func growF64(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n, n+n/2)
	}
	return buf[:n]
}

// growInt is growF32 for int slices.
//
//photon:allocok
func growInt(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n, n+n/2)
	}
	return buf[:n]
}

// retainedElems reports the elements currently parked in free lists
// (test hook for the retention bound).
func (w *Workspace) retainedElems() int { return w.retained }
