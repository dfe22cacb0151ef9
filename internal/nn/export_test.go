package nn

// GELUInput returns the pre-activation the block's GELU cached on its last
// forward, for tests outside the package that check which tanh branch a
// workload reaches.
func GELUInput(b *Block) []float32 { return b.Act.x.Data }
