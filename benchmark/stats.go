package main

import (
	"math"
	"sort"
)

// timing summarises a set of duration samples the way every timing in this
// benchmark is reported: the median, the highest percentile that still has
// ten samples beyond it, and the sample count.
type timing struct {
	N       int
	Median  float64
	Tail    float64 // value at the tail percentile; 0 when the sample is too small
	TailPct float64 // which percentile Tail is; 0 when the sample is too small
}

// summarize computes the timing summary of samples (any unit).
func summarize(samples []float64) timing {
	n := len(samples)
	if n == 0 {
		return timing{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	t := timing{N: n, Median: medianSorted(s)}
	if i := tailIndex(n); i >= 0 {
		t.Tail = s[i]
		t.TailPct = 100 * float64(i+1) / float64(n)
	}
	return t
}

// tailIndex returns the index (into the ascending sample) of the highest
// percentile that still has ten samples beyond it, or -1 when that index
// would not lie above the median: a sample of twenty supports no tail
// claim, a sample of a thousand supports p99.
func tailIndex(n int) int {
	i := n - 11
	if i <= n/2 {
		return -1
	}
	return i
}

func medianSorted(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func median(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return medianSorted(s)
}

// quartileSpread is the distance between the first and third quartile of
// values as a share of their median, with the quartiles computed as
// Python's statistics.quantiles(values, n=4) computes them (the exclusive
// method) — the rule the acceptance driver applies to ten runs.
func quartileSpread(values []float64) float64 {
	ld := len(values)
	if ld < 2 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	quart := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	med := medianSorted(s)
	if med == 0 {
		return math.Inf(1)
	}
	return math.Abs(quart(3)-quart(1)) / math.Abs(med)
}
