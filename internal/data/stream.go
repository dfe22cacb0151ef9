package data

import (
	"math/rand"

	"photon/internal/nn"
)

// Stream yields training batches, the interface between a Photon Data Source
// and an LLM client's training pipeline (BindStream in Algorithm 1).
type Stream interface {
	// NextBatch returns batchSize sequences of length seqLen with next-token
	// targets.
	NextBatch(batchSize, seqLen int) nn.Batch
}

func sampleBatch(rng *rand.Rand, src Source, batchSize, seqLen int) nn.Batch {
	b := nn.Batch{
		Inputs:  make([][]int, batchSize),
		Targets: make([][]int, batchSize),
	}
	buf := make([]int, seqLen+1)
	for i := 0; i < batchSize; i++ {
		src.Sample(rng, buf)
		in := make([]int, seqLen)
		tg := make([]int, seqLen)
		copy(in, buf[:seqLen])
		copy(tg, buf[1:])
		b.Inputs[i] = in
		b.Targets[i] = tg
	}
	return b
}

// NumShards is the paper's C4 partitioning granularity: the dataset is split
// uniformly into 64 equally sized shards, and "N clients" means N of these.
const NumShards = 64

// Shard is one of the NumShards uniform slices of a corpus. Shards of the
// same corpus share the distribution but have disjoint RNG streams, modeling
// disjoint document subsets.
type Shard struct {
	Src     Source
	ShardID int
	rng     *rand.Rand
}

// mix64 is the splitmix64 finalizer: a bijective avalanche mix in which
// every input bit affects every output bit.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// shardSeed mixes (baseSeed, shardID) into a stream seed. The previous
// affine form baseSeed + shardID·1_000_003 collided: two corpora whose base
// seeds differ by a multiple of 1,000,003 produced byte-identical shard
// streams at offset shard IDs. Mixing the base seed through splitmix64
// before folding in the shard ID (and mixing again) leaves no affine
// relation between inputs and outputs.
func shardSeed(baseSeed int64, shardID int) int64 {
	return int64(mix64(mix64(uint64(baseSeed)) + 0x9E3779B97F4A7C15*uint64(shardID)))
}

// NewShard creates shard shardID of the corpus identified by baseSeed.
func NewShard(src Source, shardID int, baseSeed int64) *Shard {
	if shardID < 0 || shardID >= NumShards {
		panic("data: shard id out of range")
	}
	return &Shard{Src: src, ShardID: shardID,
		rng: rand.New(rand.NewSource(shardSeed(baseSeed, shardID)))}
}

// NextBatch implements Stream.
func (s *Shard) NextBatch(batchSize, seqLen int) nn.Batch {
	return sampleBatch(s.rng, s.Src, batchSize, seqLen)
}

// ValidationSet is a fixed batch of held-out sequences used to compute
// comparable perplexities across training methods.
type ValidationSet struct {
	Batch nn.Batch
}

// NewValidationSet draws n held-out sequences from src with a dedicated seed
// disjoint from all shard seeds.
func NewValidationSet(src Source, n, seqLen int, seed int64) *ValidationSet {
	rng := rand.New(rand.NewSource(seed))
	return &ValidationSet{Batch: sampleBatch(rng, src, n, seqLen)}
}

// Evaluate returns validation perplexity of the model.
func (v *ValidationSet) Evaluate(m *nn.Model) float64 {
	return nn.Perplexity(m.Loss(v.Batch))
}
