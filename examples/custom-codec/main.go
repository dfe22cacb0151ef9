// Custom codec: plugs a wire codec into every federated backend through the
// codec registry. bf16 keeps the top 16 bits of each float32 (rounded to
// nearest even), halving what each broadcast and update costs on the wire;
// the example trains the same federation under dense and bf16 and compares
// bytes moved against the perplexity reached.
package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"log"
	"math"

	"photon"
)

// bf16 is a stateless codec: one brain-float16 per element.
type bf16 struct{}

func (bf16) Name() string { return "bf16" }

func (bf16) Encode(v []float32) (photon.EncodedPayload, error) {
	data := make([]byte, 2*len(v))
	for i, x := range v {
		b := math.Float32bits(x)
		b += 0x7fff + (b>>16)&1 // round to nearest, ties to even
		binary.LittleEndian.PutUint16(data[2*i:], uint16(b>>16))
	}
	return photon.EncodedPayload{Elems: len(v), Data: data}, nil
}

func (bf16) Decode(p photon.EncodedPayload) ([]float32, error) {
	if len(p.Data) != 2*p.Elems {
		return nil, fmt.Errorf("bf16: %d bytes for %d elements", len(p.Data), p.Elems)
	}
	v := make([]float32, p.Elems)
	for i := range v {
		v[i] = math.Float32frombits(uint32(binary.LittleEndian.Uint16(p.Data[2*i:])) << 16)
	}
	return v, nil
}

func main() {
	// Register on every process of a fleet: the wire ID derives from the name.
	photon.RegisterCodec("bf16", func() photon.Codec { return bf16{} })
	fmt.Println("registered codecs:", photon.Codecs())

	fmt.Printf("\n%-6s %10s %10s\n", "codec", "comm MB", "final ppl")
	for _, codec := range []string{"dense", "bf16"} {
		res, err := photon.NewJob(
			photon.WithClients(4),
			photon.WithRounds(8),
			photon.WithLocalSteps(8),
			photon.WithCodec(codec),
			photon.WithEvalEvery(8), // only the last round is read
		).Run(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		var comm int64
		for _, s := range res.Stats {
			comm += s.CommBytes
		}
		fmt.Printf("%-6s %10.2f %10.2f\n", codec, float64(comm)/1e6, res.FinalPerplexity)
	}
	fmt.Println("\nExpected: bf16 moves about half of dense's bytes and reaches about")
	fmt.Println("the same perplexity.")
}
