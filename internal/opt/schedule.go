package opt

import "math"

// Schedule maps a global optimization step (0-based) to a learning rate.
type Schedule interface {
	LR(step int) float64
}

// Constant is a flat learning-rate schedule.
type Constant float64

// LR implements Schedule.
func (c Constant) LR(int) float64 { return float64(c) }

// Cosine is linear warmup followed by cosine decay from Max to Min over
// Period steps (warmup included in the period). After the period ends the
// rate stays at Min — the "extended decay" regime the paper uses when
// stretching centralized schedules to federated small-batch training.
type Cosine struct {
	Max, Min float64
	Warmup   int
	Period   int
}

// LR implements Schedule.
func (c Cosine) LR(step int) float64 {
	if c.Warmup > 0 && step < c.Warmup {
		return c.Max * float64(step+1) / float64(c.Warmup)
	}
	if c.Period <= c.Warmup || step >= c.Period {
		return c.Min
	}
	progress := float64(step-c.Warmup) / float64(c.Period-c.Warmup)
	return c.Min + float64(0.5*(c.Max-c.Min)*(1+math.Cos(math.Pi*progress)))
}

// PaperCosine builds the paper's schedule (Table 5): minimum rate α·max with
// α = 0.1, and a warmup of 1% of the period (at least one step).
func PaperCosine(maxLR float64, period int) Cosine {
	w := period / 100
	if w < 1 {
		w = 1
	}
	return Cosine{Max: maxLR, Min: 0.1 * maxLR, Warmup: w, Period: period}
}

// LinearLRScale returns the learning rate a *centralized* run must use for a
// small batch Bsmall given a reference (lrRef, bRef) pair, per the linear
// scaling rule. The paper's Appendix C.1 observation is that centralized
// small-batch training diverges at the un-scaled rate; the recipe ablation
// bench uses this to reproduce that contrast.
func LinearLRScale(lrRef float64, bRef, bSmall int) float64 {
	if bRef <= 0 {
		return lrRef
	}
	return lrRef * float64(bSmall) / float64(bRef)
}
