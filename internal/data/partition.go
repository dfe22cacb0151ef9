package data

import "fmt"

// Partition assigns a data stream to each federated client.
type Partition struct {
	// ClientStreams[i] is the stream bound to client i (BindStream in
	// Algorithm 1).
	ClientStreams []Stream
	// SourceNames[i] describes client i's data for reporting.
	SourceNames []string
}

// NumClients returns the partition's client count.
func (p *Partition) NumClients() int { return len(p.ClientStreams) }

// IIDPartition models the paper's C4 setup: a single corpus is split into
// NumShards uniform shards and each of n clients receives one shard.
// All clients therefore share the data distribution (IID) while holding
// disjoint data.
func IIDPartition(src Source, n int, baseSeed int64) (*Partition, error) {
	if n < 1 || n > NumShards {
		return nil, fmt.Errorf("data: IID partition supports 1..%d clients, got %d", NumShards, n)
	}
	p := &Partition{}
	for i := 0; i < n; i++ {
		p.ClientStreams = append(p.ClientStreams, NewShard(src, i, baseSeed))
		p.SourceNames = append(p.SourceNames, fmt.Sprintf("%s/shard%02d", src.Name(), i))
	}
	return p, nil
}

// BySourcePartition models the paper's Pile heterogeneity setup (§5.1):
// with S underlying sources and n = S·k clients, each source is split into k
// clients, so every client holds data from exactly one source. The paper's
// configurations are 4 clients (one source each), 8 (each source split in
// two), and 16 (each split in four).
func BySourcePartition(sources []Source, n int, baseSeed int64) (*Partition, error) {
	s := len(sources)
	if s == 0 {
		return nil, fmt.Errorf("data: no sources")
	}
	if n%s != 0 {
		return nil, fmt.Errorf("data: client count %d must be a multiple of source count %d", n, s)
	}
	k := n / s
	p := &Partition{}
	for si, src := range sources {
		for j := 0; j < k; j++ {
			shardID := (si*k + j) % NumShards
			p.ClientStreams = append(p.ClientStreams, NewShard(src, shardID, baseSeed+int64(si)*7919))
			p.SourceNames = append(p.SourceNames, fmt.Sprintf("%s/part%d", src.Name(), j))
		}
	}
	return p, nil
}
