package data

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMarkovSourceDeterministicStructure(t *testing.T) {
	s := NewMarkovSource("t", 64, 4, 1.5, 1)
	// Same context must always yield the same candidate set.
	for rank := 0; rank < 4; rank++ {
		a := s.candidate(3, rank)
		b := s.candidate(3, rank)
		if a != b {
			t.Fatal("candidate not deterministic")
		}
	}
	// Different contexts should (almost always) differ somewhere.
	same := true
	for rank := 0; rank < 4; rank++ {
		if s.candidate(3, rank) != s.candidate(8, rank) {
			same = false
		}
	}
	if same {
		t.Fatal("distinct contexts produced identical candidate sets")
	}
}

func TestMarkovSampleInVocab(t *testing.T) {
	s := NewMarkovSource("t", 32, 5, 1.2, 2)
	rng := rand.New(rand.NewSource(1))
	out := make([]int, 1000)
	s.Sample(rng, out)
	for _, v := range out {
		if v < 0 || v >= 32 {
			t.Fatalf("token %d out of vocab", v)
		}
	}
}

func TestMarkovSampleReproducible(t *testing.T) {
	s := NewMarkovSource("t", 32, 5, 1.2, 2)
	a := make([]int, 100)
	b := make([]int, 100)
	s.Sample(rand.New(rand.NewSource(9)), a)
	s.Sample(rand.New(rand.NewSource(9)), b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce the same sequence")
		}
	}
}

func TestSourcesAreStatisticallyDistinct(t *testing.T) {
	// Bigram distributions of two Pile-like sources must differ measurably —
	// this is the property the heterogeneity experiments rely on.
	srcs := PileLike(32)
	counts := make([]map[[2]int]float64, len(srcs))
	for i, s := range srcs {
		counts[i] = map[[2]int]float64{}
		rng := rand.New(rand.NewSource(5))
		out := make([]int, 20000)
		s.Sample(rng, out)
		for j := 1; j < len(out); j++ {
			counts[i][[2]int{out[j-1], out[j]}]++
		}
		for k := range counts[i] {
			counts[i][k] /= float64(len(out) - 1)
		}
	}
	l1 := func(a, b map[[2]int]float64) float64 {
		seen := map[[2]int]bool{}
		var d float64
		for k, v := range a {
			d += math.Abs(v - b[k])
			seen[k] = true
		}
		for k, v := range b {
			if !seen[k] {
				d += v
			}
		}
		return d
	}
	for i := 0; i < len(srcs); i++ {
		for j := i + 1; j < len(srcs); j++ {
			if d := l1(counts[i], counts[j]); d < 0.5 {
				t.Errorf("sources %s and %s too similar: L1=%v", srcs[i].Name(), srcs[j].Name(), d)
			}
		}
	}
}

func TestMixtureWeightsNormalized(t *testing.T) {
	parts := PileLike(16)
	m := NewMixtureSource("mix", parts)
	prev := 0.0
	for i, c := range m.cdf {
		if w := c - prev; math.Abs(w-0.25) > 1e-12 {
			t.Fatalf("part %d weight %v, want uniform 0.25", i, w)
		}
		prev = c
	}
	if math.Abs(prev-1) > 1e-12 {
		t.Fatalf("weights not normalized: sum %v", prev)
	}
	if m.Vocab() != 16 {
		t.Fatalf("mixture vocab: got %d", m.Vocab())
	}
}

func TestMixturePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"empty":     func() { NewMixtureSource("m", nil) },
		"degenSrc":  func() { NewMarkovSource("s", 1, 1, 1, 0) },
		"zeroSkew":  func() { NewMarkovSource("s", 8, 2, 0, 0) },
		"zeroBrnch": func() { NewMarkovSource("s", 8, 0, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestShardsDisjointStreams(t *testing.T) {
	src := C4Like(64)
	s0 := NewShard(src, 0, 100)
	s1 := NewShard(src, 1, 100)
	b0 := s0.NextBatch(1, 32)
	b1 := s1.NextBatch(1, 32)
	same := true
	for i := range b0.Inputs[0] {
		if b0.Inputs[0][i] != b1.Inputs[0][i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different shards produced identical sequences")
	}
}

// TestShardSeedNoAffineCollision is the regression for the old
// baseSeed + shardID·1_000_003 shard seeding: corpora whose base seeds
// differ by a multiple of 1,000,003 landed on byte-identical shard streams
// at offset shard IDs. With mixed seeds, every (baseSeed, shardID) pair in
// the old collision family must produce a distinct stream.
func TestShardSeedNoAffineCollision(t *testing.T) {
	src := C4Like(64)
	draw := func(shardID int, baseSeed int64) []int {
		return NewShard(src, shardID, baseSeed).NextBatch(1, 64).Inputs[0]
	}
	for _, tc := range []struct {
		aShard int
		aBase  int64
		bShard int
		bBase  int64
	}{
		{1, 5, 0, 5 + 1_000_003},
		{3, 100, 1, 100 + 2*1_000_003},
		{2, -1_000_003, 3, -2 * 1_000_003},
	} {
		a := draw(tc.aShard, tc.aBase)
		b := draw(tc.bShard, tc.bBase)
		same := true
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("shard(%d,%d) and shard(%d,%d) produced identical streams",
				tc.aShard, tc.aBase, tc.bShard, tc.bBase)
		}
	}
	// Determinism: the same pair still yields the same stream.
	a, b := draw(1, 5), draw(1, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("shard stream no longer deterministic for a fixed (baseSeed, shardID)")
		}
	}
}

func TestShardOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewShard(C4Like(8), NumShards, 0)
}

func TestIIDPartition(t *testing.T) {
	p, err := IIDPartition(C4Like(32), 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumClients() != 8 {
		t.Fatalf("clients: got %d", p.NumClients())
	}
	for i, s := range p.ClientStreams {
		if sh := s.(*Shard); sh.Src.Name() != p.ClientStreams[0].(*Shard).Src.Name() || sh.ShardID != i {
			t.Fatalf("client %d: shard %d of %s; IID clients hold distinct shards of one corpus", i, sh.ShardID, sh.Src.Name())
		}
	}
	if _, err := IIDPartition(C4Like(32), 0, 1); err == nil {
		t.Fatal("expected error for 0 clients")
	}
	if _, err := IIDPartition(C4Like(32), NumShards+1, 1); err == nil {
		t.Fatal("expected error for too many clients")
	}
}

func TestBySourcePartitionConfigs(t *testing.T) {
	srcs := PileLike(32)
	for _, n := range []int{4, 8, 16} { // the paper's three configurations
		p, err := BySourcePartition(srcs, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		if p.NumClients() != n {
			t.Fatalf("n=%d: got %d clients", n, p.NumClients())
		}
		for i, s := range p.ClientStreams {
			if got, want := s.(*Shard).Src.Name(), srcs[i/(n/len(srcs))].Name(); got != want {
				t.Fatalf("n=%d: client %d draws from %s, want %s", n, i, got, want)
			}
		}
	}
	if _, err := BySourcePartition(srcs, 6, 1); err == nil {
		t.Fatal("expected error for n not multiple of sources")
	}
	if _, err := BySourcePartition(nil, 4, 1); err == nil {
		t.Fatal("expected error for no sources")
	}
}

func TestValidationSetStable(t *testing.T) {
	v1 := NewValidationSet(C4Like(32), 4, 16, 99)
	v2 := NewValidationSet(C4Like(32), 4, 16, 99)
	for i := range v1.Batch.Inputs {
		for j := range v1.Batch.Inputs[i] {
			if v1.Batch.Inputs[i][j] != v2.Batch.Inputs[i][j] {
				t.Fatal("validation set not reproducible")
			}
		}
	}
}

// Property: any shard of any seed yields only in-vocab tokens with correct
// next-token alignment.
func TestShardBatchProperty(t *testing.T) {
	src := C4Like(48)
	f := func(seedRaw int64, shardRaw uint8) bool {
		shard := int(shardRaw) % NumShards
		s := NewShard(src, shard, seedRaw)
		b := s.NextBatch(2, 12)
		for i := range b.Inputs {
			for j := range b.Inputs[i] {
				if b.Inputs[i][j] < 0 || b.Inputs[i][j] >= 48 {
					return false
				}
				if j+1 < len(b.Inputs[i]) && b.Targets[i][j] != b.Inputs[i][j+1] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
