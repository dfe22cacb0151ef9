package tensor

import "math/rand"

// RandNormal fills x with samples from N(mean, std²) drawn from rng.
// Using an explicit rng keeps model initialization deterministic per seed,
// which the experiment harness relies on for reproducibility.
func RandNormal(rng *rand.Rand, x []float32, mean, std float64) {
	for i := range x {
		x[i] = float32(mean + float64(std*rng.NormFloat64()))
	}
}
