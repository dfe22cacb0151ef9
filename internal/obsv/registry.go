package obsv

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing instrument.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
//
//photon:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored; counters only go up).
//
//photon:hotpath
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
//
//photon:hotpath
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable instrument.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
//
//photon:hotpath
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
//
//photon:hotpath
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram. Observations are
// lock-free: bucket counts are atomic adds and the sum is a CAS loop on
// float bits.
type Histogram struct {
	bounds  []float64 // upper bounds, ascending; +Inf is implicit
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// DefBuckets is a latency-shaped default (seconds): 1ms .. ~100s.
var DefBuckets = []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 25, 50, 100}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b))}
}

// Observe records one sample.
//
//photon:hotpath
func (h *Histogram) Observe(v float64) {
	for i, ub := range h.bounds {
		if v <= ub {
			h.buckets[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
//
//photon:hotpath
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the running sum of observed values.
//
//photon:hotpath
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// RingSize is how many of the most recent samples a Ring keeps.
const RingSize = 256

// Ring is the exact-percentile counterpart of Histogram: the RingSize most
// recent durations, copied and sorted on read. It is deterministic, O(1) per
// sample, and unsynchronised; its owner holds whatever lock guards it.
type Ring struct {
	buf    [RingSize]time.Duration
	pos, n int
}

// Add records d, overwriting the oldest sample once the ring is full.
//
//photon:hotpath
func (r *Ring) Add(d time.Duration) {
	r.buf[r.pos] = d
	r.pos = (r.pos + 1) % RingSize
	if r.n < RingSize {
		r.n++
	}
}

// Reset forgets every sample.
func (r *Ring) Reset() { r.pos, r.n = 0, 0 }

// Percentile returns the sample at index n·p/100 of the retained samples in
// ascending order (0 when there are none) — the one index rule behind every
// p50 and p99 in the codebase.
func (r *Ring) Percentile(p int) time.Duration {
	if r.n == 0 {
		return 0
	}
	sorted := make([]time.Duration, r.n)
	copy(sorted, r.buf[:r.n])
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[(r.n*p)/100]
}

type instrument struct {
	name, help, kind string
	counter          *Counter
	gauge            *Gauge
	hist             *Histogram
}

// Registry holds named instruments and renders them in Prometheus text
// exposition format. Registration is idempotent per (name, kind): asking
// for an existing instrument returns it, while re-registering a name under
// a different kind panics (a programming error, like an import cycle).
type Registry struct {
	mu    sync.Mutex
	insts map[string]*instrument
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{insts: make(map[string]*instrument)} }

// Default is the process-wide registry every binary exposes on
// -metrics-addr. Package-level Counter/Gauge/Histogram helpers register
// here.
var Default = NewRegistry()

// get fetches or creates the named instrument slot. Callers hold r.mu, so
// the kind check, the slot creation, and the caller's lazy instrument init
// are one atomic registration.
func (r *Registry) get(name, help, kind string) *instrument {
	if in, ok := r.insts[name]; ok {
		if in.kind != kind {
			panic(fmt.Sprintf("obsv: %q registered as %s, requested as %s", name, in.kind, kind))
		}
		return in
	}
	in := &instrument{name: name, help: help, kind: kind}
	r.insts[name] = in
	return in
}

// Counter registers (or fetches) a counter.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	in := r.get(name, help, "counter")
	if in.counter == nil {
		in.counter = &Counter{}
	}
	return in.counter
}

// Gauge registers (or fetches) a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	in := r.get(name, help, "gauge")
	if in.gauge == nil {
		in.gauge = &Gauge{}
	}
	return in.gauge
}

// Histogram registers (or fetches) a histogram with the given upper
// bounds (nil means DefBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	in := r.get(name, help, "histogram")
	if in.hist == nil {
		in.hist = newHistogram(bounds)
	}
	return in.hist
}

// WritePrometheus renders every instrument in text exposition format,
// sorted by name for stable scrapes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.insts))
	for n := range r.insts {
		names = append(names, n)
	}
	insts := make([]*instrument, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		insts = append(insts, r.insts[n])
	}
	r.mu.Unlock()

	for _, in := range insts {
		if in.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", in.name, in.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", in.name, in.kind); err != nil {
			return err
		}
		switch {
		case in.counter != nil:
			if _, err := fmt.Fprintf(w, "%s %d\n", in.name, in.counter.Value()); err != nil {
				return err
			}
		case in.gauge != nil:
			if _, err := fmt.Fprintf(w, "%s %s\n", in.name, fmtFloat(in.gauge.Value())); err != nil {
				return err
			}
		case in.hist != nil:
			var cum int64
			for i, ub := range in.hist.bounds {
				cum += in.hist.buckets[i].Load()
				if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", in.name, fmtFloat(ub), cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", in.name, in.hist.Count()); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum %s\n", in.name, fmtFloat(in.hist.Sum())); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count %d\n", in.name, in.hist.Count()); err != nil {
				return err
			}
		}
	}
	return nil
}

func fmtFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
