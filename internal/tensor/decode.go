package tensor

import "fmt"

// DecodeItem is one (sequence × head) unit of KV-cached incremental
// attention. Unlike the training-path batched kernels, items are ragged: each
// carries its own query count and cached-key count, which is exactly the
// shape a continuous-batching decode step produces — freshly admitted
// sequences prefill many query rows at once while steady-state sequences
// decode one row against a long cached prefix.
//
// Q holds QRows contiguous query rows of width d (= len(Ctx)/QRows); K and V
// hold KRows cached rows each, with the rows for the current call's queries
// already appended, so query row r sits at absolute position
// p = KRows − QRows + r and attends keys [0, p]. Probs is QRows×KRows
// row-major scratch; entries above each row's causal end are left untouched.
type DecodeItem struct {
	Q     []float32 // QRows·d query rows
	K     []float32 // KRows·d cached key rows (new rows appended)
	V     []float32 // KRows·d cached value rows
	Probs []float32 // QRows·KRows attention-probability scratch
	Ctx   []float32 // QRows·d output context rows
	QRows int
	KRows int
	Slope float32 // ALiBi slope of the item's head
}

// AttendDecode runs the fused incremental-attention epilogue for every item:
// scores = scale·Q·Kᵀ + ALiBi bias on the causal support, row softmax, and
// context = probs·V, all in one pass per item. Items are independent and are
// dispatched across the worker pool; operand slices travel in the items
// slice, so a steady-state call allocates nothing.
//
//photon:hotpath
func AttendDecode(items []DecodeItem, scale float32) {
	if len(items) == 0 {
		return
	}
	vol := 0
	for i := range items {
		it := &items[i]
		if it.QRows <= 0 || it.KRows < it.QRows {
			panic(fmt.Sprintf("tensor: AttendDecode item %d: %d query rows, %d key rows", i, it.QRows, it.KRows))
		}
		d := len(it.Ctx) / it.QRows
		if d == 0 || len(it.Ctx) != it.QRows*d || len(it.Q) != it.QRows*d ||
			len(it.K) != it.KRows*d || len(it.V) != it.KRows*d || len(it.Probs) != it.QRows*it.KRows {
			panic(fmt.Sprintf("tensor: AttendDecode item %d shape mismatch (q=%d k=%d v=%d probs=%d ctx=%d, qrows=%d krows=%d)",
				i, len(it.Q), len(it.K), len(it.V), len(it.Probs), len(it.Ctx), it.QRows, it.KRows))
		}
		// Two matrix products per row pair plus the softmax pass.
		vol += satMul(it.QRows, satMul(it.KRows, 2*d))
	}
	dispatch(len(items), vol/len(items), task{kind: kAttendDecode, ditems: items, scale: scale})
}

// bandAttendDecode runs items [lo, hi) of a decode dispatch.
//
//photon:hotpath
func bandAttendDecode(items []DecodeItem, scale float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		it := &items[i]
		d := len(it.Ctx) / it.QRows
		for r := 0; r < it.QRows; r++ {
			pos := it.KRows - it.QRows + r
			end := pos + 1
			q := it.Q[r*d : (r+1)*d]
			probs := it.Probs[r*it.KRows : r*it.KRows+end]

			// Scores against the causal prefix.
			j := 0
			for ; j+4 <= end; j += 4 {
				probs[j], probs[j+1], probs[j+2], probs[j+3] = dot4(q,
					it.K[j*d:(j+1)*d], it.K[(j+1)*d:(j+2)*d],
					it.K[(j+2)*d:(j+3)*d], it.K[(j+3)*d:(j+4)*d])
			}
			for ; j < end; j++ {
				probs[j] = Dot(q, it.K[j*d:(j+1)*d])
			}

			// Scale + ALiBi bias + softmax, matching bandCausalSoftmax.
			softmaxExp(probs, biasMax(probs, scale, it.Slope, pos))

			// Context: probs·V over the causal prefix.
			ctx := it.Ctx[r*d : (r+1)*d]
			for x := range ctx {
				ctx[x] = 0
			}
			j = 0
			for ; j+4 <= end; j += 4 {
				axpy4in(probs[j], probs[j+1], probs[j+2], probs[j+3],
					it.V[j*d:(j+1)*d], it.V[(j+1)*d:(j+2)*d],
					it.V[(j+2)*d:(j+3)*d], it.V[(j+3)*d:(j+4)*d], ctx)
			}
			for ; j < end; j++ {
				axpy(probs[j], it.V[j*d:(j+1)*d], ctx)
			}
		}
	}
}
