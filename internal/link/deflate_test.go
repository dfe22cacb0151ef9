package link

import (
	"bytes"
	"compress/flate"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
)

// planeFloats is a vector whose exponent plane is plane (sign and mantissa
// zero), so the plane coder sees exactly these bytes.
func planeFloats(plane []byte) []float32 {
	v := make([]float32, len(plane))
	for i, b := range plane {
		v[i] = math.Float32frombits(uint32(b) << 23)
	}
	return v
}

// ourDeflate is the plane coder's stream for plane.
func ourDeflate(plane []byte) []byte {
	v := planeFloats(plane)
	blocks, size := deflatePlane(v, make([]byte, 3*len(v)), make([]byte, scratchLen(len(v))))
	out := make([]byte, size)
	stitch(out, blocks, v)
	return out
}

// stdDeflate is compress/flate's HuffmanOnly stream for plane: the oracle.
func stdDeflate(plane []byte) []byte {
	var buf bytes.Buffer
	fw, _ := flate.NewWriter(&buf, flate.HuffmanOnly)
	fw.Write(plane)
	fw.Close()
	return buf.Bytes()
}

// ourInflate inflates stream into n exponent bytes with the plane inflater.
func ourInflate(stream []byte, n int) ([]byte, error) {
	out := make([]float32, n)
	if err := inflatePlane(out, stream, make([]byte, 3*n)); err != nil {
		return nil, err
	}
	plane := make([]byte, n)
	for i, x := range out {
		plane[i] = byte(math.Float32bits(x) >> 23)
	}
	return plane, nil
}

// modelPlane is the exponent plane of a model-shaped vector (benchModel).
func modelPlane(rng *rand.Rand, n int) []byte {
	plane := make([]byte, n)
	for i, x := range benchModel(rng.Int63(), n) {
		plane[i] = byte(math.Float32bits(x) >> 23)
	}
	return plane
}

// fibPlane repeats a pattern in which symbol k occurs fib(k) times: its
// optimal code is 21 levels deep, so the 15-bit length limit binds.
func fibPlane(rng *rand.Rand, n int) []byte {
	var pattern []byte
	for k, a, b := 0, 1, 1; k < 22; k, a, b = k+1, b, a+b {
		pattern = append(pattern, bytes.Repeat([]byte{byte(100 + k)}, a)...)
	}
	rng.Shuffle(len(pattern), func(i, j int) { pattern[i], pattern[j] = pattern[j], pattern[i] })
	plane := make([]byte, n)
	for i := range plane {
		plane[i] = pattern[i%len(pattern)]
	}
	return plane
}

var planeSizes = []int{1, 4, 65534, 65535, 65536, 131070, 131071, 1050880}

var planeKinds = map[string]func(rng *rand.Rand, n int) []byte{
	"model": modelPlane,
	"random": func(rng *rand.Rand, n int) []byte {
		p := make([]byte, n)
		rng.Read(p)
		return p
	},
	"constant": func(_ *rand.Rand, n int) []byte { return bytes.Repeat([]byte{0x7c}, n) },
	"one-rare": func(_ *rand.Rand, n int) []byte {
		p := bytes.Repeat([]byte{0x79}, n)
		p[n/2] = 0x01
		return p
	},
	"fibonacci": fibPlane,
	"all-256": func(_ *rand.Rand, n int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(i * 7)
		}
		return p
	},
}

// TestFlatePlaneMatchesStdlib: the plane coder writes compress/flate's
// HuffmanOnly bytes exactly, at one and two processors, and the inflater
// gives back the plane — across block boundaries, stored blocks, a constant
// plane, and codes at the 15-bit limit.
func TestFlatePlaneMatchesStdlib(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	longest := 0
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for kind, gen := range planeKinds {
			for _, n := range planeSizes {
				if procs == 1 && n == planeSizes[len(planeSizes)-1] && kind != "model" {
					continue // the largest size at one processor only for the broadcast shape
				}
				plane := gen(rand.New(rand.NewSource(int64(n))), n)
				want, got := stdDeflate(plane), ourDeflate(plane)
				if !bytes.Equal(got, want) {
					i := 0
					for i < min(len(got), len(want)) && got[i] == want[i] {
						i++
					}
					t.Fatalf("procs=%d %s n=%d: %d bytes, compress/flate wrote %d; first difference at byte %d", procs, kind, n, len(got), len(want), i)
				}
				back, err := ourInflate(want, n)
				if err != nil || !bytes.Equal(back, plane) {
					t.Fatalf("procs=%d %s n=%d: inflate: %v (equal=%v)", procs, kind, n, err, bytes.Equal(back, plane))
				}
				if kind == "fibonacci" {
					var freq [endOfBlock + 1]int32
					for _, b := range plane[:min(n, planeBlock)] {
						freq[b]++
					}
					freq[endOfBlock] = 1
					var codes [endOfBlock + 1]hcode
					huffman(codes[:], freq[:], 15)
					for _, c := range codes {
						longest = max(longest, int(c.len))
					}
				}
			}
		}
	}
	if longest != 15 {
		t.Fatalf("fibonacci plane's longest code is %d bits, want the 15-bit limit", longest)
	}
}

// TestFlateDecodeAllocs: a warm Decode of a broadcast-sized payload allocates
// its output and nothing else. The collector is off so that its own
// bookkeeping does not count.
func TestFlateDecodeAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	enc, err := EncodeVector(FlateCodec{}, benchModel(1, broadcastElems))
	if err != nil || enc.CodecID != CodecFlate {
		t.Fatalf("setup: codec %d, err %v", enc.CodecID, err)
	}
	if allocs := testing.AllocsPerRun(5, func() {
		if _, err := (FlateCodec{}).Decode(enc); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Fatalf("Decode made %v allocations, want 1 (its output)", allocs)
	}
}

// FuzzFlatePlane: any plane deflates to compress/flate's exact bytes and
// inflates back; any stream the inflater accepts, compress/flate inflates to
// the same plane, ending where the stream ends.
func FuzzFlatePlane(f *testing.F) {
	rng := rand.New(rand.NewSource(30))
	for kind, gen := range planeKinds {
		for _, n := range []int{1, 5, 300} {
			plane := gen(rng, n)
			f.Add(plane, uint16(n))
			f.Add(stdDeflate(plane), uint16(n))
			if kind == "model" {
				f.Add(stdDeflate(plane)[:n/4], uint16(n))
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, elems uint16) {
		if want, got := stdDeflate(data), ourDeflate(data); !bytes.Equal(got, want) {
			t.Fatalf("plane of %d bytes: %d-byte stream, compress/flate wrote %d", len(data), len(got), len(want))
		} else if back, err := ourInflate(want, len(data)); err != nil || !bytes.Equal(back, data) {
			t.Fatalf("plane of %d bytes does not round-trip: %v", len(data), err)
		}
		n := int(elems)
		plane, err := ourInflate(data, n)
		if err != nil {
			return
		}
		src := bytes.NewReader(data)
		std, err := io.ReadAll(io.LimitReader(flate.NewReader(src), int64(n)+1))
		if err != nil || !bytes.Equal(std, plane) || src.Len() != 0 {
			t.Fatalf("accepted a stream compress/flate reads as %d bytes (err %v, %d bytes unread), want %d", len(std), err, src.Len(), n)
		}
	})
}

// hostileStream builds a deflate stream by hand for the inflater's rejection
// paths: blocks are appended as bits, then the stream is byte-aligned.
type hostileStream struct{ bitWriter }

func newHostileStream() *hostileStream {
	return &hostileStream{bitWriter{buf: make([]byte, 4096)}}
}

func (s *hostileStream) bytes() []byte {
	s.align()
	return s.buf[:s.pos]
}

// dynamic writes a dynamic-block header whose code-length code gives
// symbols 0-12 four bits and 13-18 five (a complete code), then emits the
// code-length symbols in cl, each repeat symbol followed by its extra bits.
func (s *hostileStream) dynamic(final uint64, nlit, ndist int, cl ...int) {
	s.put(final|2<<1, 3)
	s.put(uint64(nlit-257), 5)
	s.put(uint64(ndist-1), 5)
	s.put(19-4, 4)
	var lens [19]uint8
	for i := range lens {
		lens[i] = 4 + uint8(i/13)
	}
	for _, sym := range codegenOrder {
		s.put(uint64(lens[sym]), 3)
	}
	var codes [19]uint16
	canonical(lens[:], codes[:])
	for i := 0; i < len(cl); i++ {
		s.put(uint64(codes[cl[i]]), uint(lens[cl[i]]))
		if cl[i] >= 16 {
			i++
			s.put(uint64(cl[i]), uint(repeatBits[cl[i-1]]))
		}
	}
}

// lengths spells out explicit code lengths (no repeats) for nlit literal
// and ndist distance codes, with the given nonzero entries.
func lengths(nlit, ndist int, nonzero map[int]int) []int {
	cl := make([]int, nlit+ndist)
	for sym, l := range nonzero {
		cl[sym] = l
	}
	return cl
}

// symbol writes literal/length symbol sym under the code the lengths give.
func (s *hostileStream) symbol(lens map[int]int, sym int) {
	var ls [286]uint8
	for k, l := range lens {
		ls[k] = uint8(l)
	}
	var codes [286]uint16
	canonical(ls[:], codes[:])
	s.put(uint64(codes[sym]), uint(ls[sym]))
}

// hostilePlane is a stream the inflater must refuse, the elems it claims,
// the error it must be refused with, and whether compress/flate reads it:
// valid deflate outside the literal-only shape.
type hostilePlane struct {
	name       string
	elems      int
	stream     []byte
	want       error
	stdAccepts bool
}

func hostilePlanes() []hostilePlane {
	var rows []hostilePlane
	// Symbols 0, 1, 256 and 257 at two bits each: a complete code.
	ref := map[int]int{0: 2, 1: 2, endOfBlock: 2, 257: 2}
	s := newHostileStream()
	s.dynamic(1, 258, 1, lengths(258, 1, map[int]int{0: 2, 1: 2, endOfBlock: 2, 257: 2, 258: 1})...)
	s.symbol(ref, 0)
	s.symbol(ref, 257) // length 3
	s.put(0, 1)        // distance 1
	s.symbol(ref, endOfBlock)
	rows = append(rows, hostilePlane{"length/distance symbol", 4, s.bytes(), errPlaneRef, true})

	s = newHostileStream()
	s.put(1|1<<1, 3) // final, fixed Huffman
	s.put(0x0c, 8)   // literal 0: 00110000, reversed
	s.put(0, 7)      // end of block
	rows = append(rows, hostilePlane{"fixed-Huffman block", 1, s.bytes(), errPlaneBlock, true})

	s = newHostileStream()
	s.put(1|3<<1, 3)
	s.put(0, 16)
	rows = append(rows, hostilePlane{"reserved block type", 1, s.bytes(), errPlaneBlock, false})

	s = newHostileStream()
	s.dynamic(1, 257, 1, lengths(257, 1, map[int]int{0: 1, 1: 1, 2: 1, endOfBlock: 1, 257: 1})...)
	s.put(0, 8)
	rows = append(rows, hostilePlane{"oversubscribed code", 1, s.bytes(), errPlaneLengths, false})

	s = newHostileStream()
	s.dynamic(1, 257, 1, lengths(257, 1, map[int]int{0: 2, endOfBlock: 2, 257: 1})...)
	s.put(0, 8)
	rows = append(rows, hostilePlane{"incomplete code", 1, s.bytes(), errPlaneLengths, false})

	s = newHostileStream()
	s.dynamic(1, 257, 1, 16, 0)
	s.put(0, 16)
	rows = append(rows, hostilePlane{"repeat-16 with no previous length", 1, s.bytes(), errPlaneLengths, false})

	s = newHostileStream()
	s.dynamic(1, 257, 1, 18, 127, 18, 127, 18, 127)
	s.put(0, 16)
	rows = append(rows, hostilePlane{"repeat past HLIT+HDIST", 1, s.bytes(), errPlaneLengths, false})

	noEOB := map[int]int{0: 1, 1: 1}
	s = newHostileStream()
	s.dynamic(1, 257, 1, lengths(257, 1, map[int]int{0: 1, 1: 1, 257: 1})...)
	s.symbol(noEOB, 0)
	s.put(0, 16)
	rows = append(rows, hostilePlane{"no end-of-block code", 1, s.bytes(), errPlaneLengths, false})

	s = newHostileStream()
	s.dynamic(1, 257, 1, lengths(257, 1, map[int]int{endOfBlock: 1, 257: 1})...)
	s.put(1, 1) // the unassigned half of a one-code tree
	rows = append(rows, hostilePlane{"undecodable code", 1, s.bytes(), errPlaneCode, false})

	rows = append(rows, hostilePlane{"stored LEN/NLEN disagree", 1, []byte{1, 1, 0, 0xff, 0xff, 0x7c}, errPlaneStored, false})
	good := stdDeflate([]byte{0x7c, 0x7d, 0x7c})
	rows = append(rows, hostilePlane{"bytes after the final block", 3, append(append([]byte(nil), good...), 0), errPlaneTrailing, true})
	return rows
}

// TestHostileStreams: each hand-built stream is refused with the error it is
// named for, and compress/flate agrees on which of them are valid deflate.
func TestHostileStreams(t *testing.T) {
	for _, tc := range hostilePlanes() {
		if _, err := ourInflate(tc.stream, tc.elems); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		got, err := io.ReadAll(flate.NewReader(bytes.NewReader(tc.stream)))
		if accepted := err == nil && len(got) == tc.elems; accepted != tc.stdAccepts {
			t.Errorf("%s: compress/flate read %d bytes, err %v; want accepted=%v", tc.name, len(got), err, tc.stdAccepts)
		}
	}
}
