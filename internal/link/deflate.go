package link

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"runtime"
	"slices"
)

// RFC 1951 (deflate) cut down to the one stream shape the flate codec puts on
// the wire: an exponent plane coded as literals only, which is what
// compress/flate's HuffmanOnly level writes. The encoder is a port of that
// writer and emits the same bytes; the inflater reads stored and
// dynamic-Huffman blocks and refuses everything else.

const (
	planeBlock = 65535 // input bytes per block: compress/flate's maxStoreBlockSize
	// slotPad is a block's scratch beyond its input size: a Huffman form is
	// kept only when it is at most 5 bytes longer than the input, and the
	// bit writer stores whole words.
	slotPad    = 16
	endOfBlock = 256
	cgEnd      = 0xff // ends a codegen sequence
)

var (
	codegenOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
	// repeatBits and repeatBase decode the code-length repeat symbols: 16
	// repeats the previous length, 17 and 18 repeat zero.
	repeatBits = [19]uint8{16: 2, 17: 3, 18: 7}
	repeatBase = [19]uint8{16: 3, 17: 3, 18: 11}
)

// ---- encoder ----

// hcode is a Huffman code, bit-reversed for LSB-first output, and its length.
type hcode struct{ code, len uint16 }

type litNode struct {
	lit  uint16
	freq int32
}

// huffman fills codes with the length-limited code compress/flate's
// huffmanEncoder.generate builds for freq: its lengths (package-merge over the
// symbols ordered by frequency, then symbol) and its canonical codes.
func huffman(codes []hcode, freq []int32, maxBits int32) {
	var buf [endOfBlock + 2]litNode
	list := buf[:0]
	for i, f := range freq {
		codes[i] = hcode{}
		if f != 0 {
			list = append(list, litNode{uint16(i), f})
		}
	}
	if len(list) <= 2 {
		for i, nd := range list {
			codes[nd.lit] = hcode{uint16(i), 1}
		}
		return
	}
	slices.SortFunc(list, func(a, b litNode) int {
		if a.freq != b.freq {
			return int(a.freq) - int(b.freq)
		}
		return int(a.lit) - int(b.lit)
	})
	var counts [16]int32
	code := uint16(0)
	for n, c := range bitCounts(&counts, list, maxBits) {
		code <<= 1
		if n == 0 || c == 0 {
			continue
		}
		chunk := list[len(list)-int(c):]
		slices.SortFunc(chunk, func(a, b litNode) int { return int(a.lit) - int(b.lit) })
		for _, nd := range chunk {
			codes[nd.lit] = hcode{bits.Reverse16(code << (16 - n)), uint16(n)}
			code++
		}
		list = list[:len(list)-int(c)]
	}
}

// bitCounts is compress/flate's huffmanEncoder.bitCounts: how many symbols of
// list (ascending frequency, at least three, one spare slot of capacity) get
// each code length up to maxBits.
func bitCounts(counts *[16]int32, list []litNode, maxBits int32) []int32 {
	type level struct{ lastFreq, nextCharFreq, nextPairFreq, needed int32 }
	n := int32(len(list))
	list = list[:n+1]
	list[n] = litNode{math.MaxUint16, math.MaxInt32}
	maxBits = min(maxBits, n-1)
	var levels [16]level
	var leafCounts [16][16]int32
	for l := int32(1); l <= maxBits; l++ {
		levels[l] = level{lastFreq: list[1].freq, nextCharFreq: list[2].freq, nextPairFreq: list[0].freq + list[1].freq}
		leafCounts[l][l] = 2
	}
	levels[1].nextPairFreq = math.MaxInt32
	levels[maxBits].needed = 2*n - 4
	for l := maxBits; ; {
		lv := &levels[l]
		if lv.nextPairFreq == math.MaxInt32 && lv.nextCharFreq == math.MaxInt32 {
			lv.needed = 0
			levels[l+1].nextPairFreq = math.MaxInt32
			l++
			continue
		}
		prevFreq := lv.lastFreq
		if lv.nextCharFreq < lv.nextPairFreq {
			c := leafCounts[l][l] + 1
			lv.lastFreq = lv.nextCharFreq
			leafCounts[l][l] = c
			lv.nextCharFreq = list[c].freq
		} else {
			lv.lastFreq = lv.nextPairFreq
			copy(leafCounts[l][:l], leafCounts[l-1][:l])
			levels[l-1].needed = 2
		}
		if lv.needed--; lv.needed == 0 {
			if l == maxBits {
				break
			}
			levels[l+1].nextPairFreq = prevFreq + lv.lastFreq
			l++
		} else {
			for levels[l-1].needed > 0 {
				l--
			}
		}
	}
	for l := maxBits; l > 0; l-- {
		counts[maxBits+1-l] = leafCounts[maxBits][l] - leafCounts[maxBits][l-1]
	}
	return counts[:maxBits+1]
}

// codegen is compress/flate's generateCodegen for a literal-only block: it
// run-length codes the 257 literal code lengths and the one 1-bit offset code
// into cg (each 16/17/18 followed by its repeat count, cgEnd last) and counts
// the code-length symbols in freq.
func codegen(cg *[endOfBlock + 3]uint8, freq *[19]int32, lit *[endOfBlock + 1]hcode) {
	for i, c := range lit {
		cg[i] = uint8(c.len)
	}
	cg[endOfBlock+1], cg[endOfBlock+2] = 1, cgEnd
	size, count, out := cg[0], 1, 0
	emit := func(s uint8) { cg[out] = s; out++; freq[s]++ }
	repeat := func(s uint8, n int) { emit(s); cg[out] = uint8(n); out++ }
	for in := 1; size != cgEnd; in++ {
		if cg[in] == size {
			count++
			continue
		}
		if size != 0 {
			emit(size)
			for count--; count >= 3; count -= min(count, 6) {
				repeat(16, min(count, 6)-3)
			}
		} else {
			for ; count >= 11; count -= min(count, 138) {
				repeat(18, min(count, 138)-11)
			}
			if count >= 3 {
				repeat(17, count-3)
				count = 0
			}
		}
		for ; count > 0; count-- {
			emit(size)
		}
		size, count = cg[in], 1
	}
	cg[out] = cgEnd
}

// deflateBlock is one deflate block of an exponent plane: elements [lo, hi)
// of the vector, and the length in bits of their Huffman form, built into
// slot — or 0 when compress/flate stores the block raw instead.
type deflateBlock struct {
	lo, hi int
	bits   int
	slot   []byte
}

// build splits the block's elements into their exponent histogram and
// their 3-byte remainders, derives compress/flate's codes and header from
// the histogram, and writes the Huffman form into the block's slot of
// scratch unless compress/flate's rule — store when the stored form is
// smaller than size + size/16 — stores the block.
func (b *deflateBlock) build(v []float32, rem, scratch []byte) {
	var freq [endOfBlock + 1]int32
	splitHist(rem[3*b.lo:], v[b.lo:b.hi], &freq)
	freq[endOfBlock] = 1
	var lit [endOfBlock + 1]hcode
	huffman(lit[:], freq[:], 15)
	var cg [endOfBlock + 3]uint8
	var cgFreq [19]int32
	codegen(&cg, &cgFreq, &lit)
	var cgc [19]hcode
	huffman(cgc[:], cgFreq[:], 7)
	nc := 19
	for nc > 4 && cgFreq[codegenOrder[nc-1]] == 0 {
		nc--
	}
	// The trailing 1 is the offset code compress/flate counts but never writes.
	size := 3 + 5 + 5 + 4 + 3*nc + 2*int(cgFreq[16]) + 3*int(cgFreq[17]) + 7*int(cgFreq[18]) + 1
	for i, f := range cgFreq {
		size += int(f) * int(cgc[i].len)
	}
	for i, f := range freq {
		size += int(f) * int(lit[i].len)
	}
	if (b.hi-b.lo+5)*8 < size+size>>4 {
		return
	}
	slot := b.lo + slotPad*(b.lo/planeBlock)
	w := bitWriter{buf: scratch[slot : slot+b.hi-b.lo+slotPad]}
	w.put(4, 3) // not final, dynamic Huffman
	w.put(0, 5) // 257 literal/length codes
	w.put(0, 5) // 1 offset code
	w.put(uint64(nc-4), 4)
	for _, s := range codegenOrder[:nc] {
		w.put(uint64(cgc[s].len), 3)
	}
	for i := 0; cg[i] != cgEnd; i++ {
		s := cg[i]
		w.put(uint64(cgc[s].code), uint(cgc[s].len))
		if s >= 16 {
			i++
			w.put(uint64(cg[i]), uint(repeatBits[s]))
		}
	}
	w.putLiterals(v[b.lo:b.hi], &lit)
	w.put(uint64(lit[endOfBlock].code), uint(lit[endOfBlock].len))
	b.bits = 8*w.pos + int(w.n)
	w.align()
	b.slot = w.buf[:w.pos]
}

// deflatePlane deflates v's exponent plane the way compress/flate's
// HuffmanOnly writer does, one block per 65,535 elements, and writes each
// element's sign and mantissa to rem (3 bytes each). Blocks are independent,
// so the second half is built on another goroutine when there is a second
// processor; stitch then lays them out. It returns the blocks and the
// stream's length in bytes.
//
//photon:allocok
func deflatePlane(v []float32, rem, scratch []byte) ([]deflateBlock, int) {
	blocks := make([]deflateBlock, (len(v)+planeBlock-1)/planeBlock)
	for i := range blocks {
		blocks[i].lo, blocks[i].hi = i*planeBlock, min(len(v), (i+1)*planeBlock)
	}
	build := func(bs []deflateBlock) {
		for i := range bs {
			bs[i].build(v, rem, scratch)
		}
	}
	if h := len(blocks) / 2; h > 0 && runtime.GOMAXPROCS(0) > 1 {
		done := make(chan struct{})
		go func() { build(blocks[h:]); close(done) }()
		build(blocks[:h])
		<-done
	} else {
		build(blocks)
	}
	off := 0
	for _, b := range blocks {
		if b.bits == 0 {
			off = (off+10)&^7 + 32 + 8*(b.hi-b.lo)
		} else {
			off += b.bits
		}
	}
	return blocks, ((off+10)&^7 + 32) / 8
}

// scratchLen is the scratch deflatePlane needs for n elements: a slot per
// block, as long as its input plus slotPad.
func scratchLen(n int) int { return n + slotPad*((n+planeBlock-1)/planeBlock) }

// stitch writes the deflate stream into dst (exactly deflatePlane's size):
// each block at its bit offset — stored blocks straight from v, since their
// padding depends on where they land — then compress/flate's closing empty
// stored block.
func stitch(dst []byte, blocks []deflateBlock, v []float32) {
	w := bitWriter{buf: dst}
	for _, b := range blocks {
		if b.bits == 0 {
			w.stored(v[b.lo:b.hi], 0)
		} else {
			w.appendBits(b.slot, b.bits)
		}
	}
	w.stored(nil, 1)
}

// bitWriter appends LSB-first bits to buf.
type bitWriter struct {
	buf []byte
	pos int
	acc uint64
	n   uint
}

//photon:hotpath
func (w *bitWriter) put(v uint64, nb uint) {
	w.acc |= v << w.n
	if w.n += nb; w.n >= 32 {
		binary.LittleEndian.PutUint32(w.buf[w.pos:], uint32(w.acc))
		w.pos, w.acc, w.n = w.pos+4, w.acc>>32, w.n-32
	}
}

// align writes out the pending bits, zero-padded to a byte boundary.
//
//photon:hotpath
func (w *bitWriter) align() {
	for ; w.n > 0; w.n -= min(w.n, 8) {
		w.buf[w.pos] = byte(w.acc)
		w.pos, w.acc = w.pos+1, w.acc>>8
	}
}

// flushBytes writes out the pending whole bytes, leaving fewer than 8 bits.
//
//photon:hotpath
func (w *bitWriter) flushBytes() {
	for ; w.n >= 8; w.n -= 8 {
		w.buf[w.pos] = byte(w.acc)
		w.pos, w.acc = w.pos+1, w.acc>>8
	}
}

// putLiterals writes the code of every element's exponent byte, three codes
// (at most 45 bits) between whole-byte flushes.
//
//photon:hotpath
func (w *bitWriter) putLiterals(v []float32, codes *[endOfBlock + 1]hcode) {
	w.flushBytes()
	buf, pos, acc, n := w.buf, w.pos, w.acc, w.n
	for ; len(v) >= 3; v = v[3:] {
		c0 := codes[uint8(math.Float32bits(v[0])>>23)]
		c1 := codes[uint8(math.Float32bits(v[1])>>23)]
		c2 := codes[uint8(math.Float32bits(v[2])>>23)]
		l01 := uint(c0.len) + uint(c1.len)
		acc |= (uint64(c0.code) | uint64(c1.code)<<(c0.len&63) | uint64(c2.code)<<(l01&63)) << (n & 63)
		n += l01 + uint(c2.len)
		binary.LittleEndian.PutUint64(buf[pos:], acc)
		pos += int(n >> 3)
		acc >>= (n &^ 7) & 63
		n &= 7
	}
	w.pos, w.acc, w.n = pos, acc, n
	for _, x := range v {
		c := codes[uint8(math.Float32bits(x)>>23)]
		w.put(uint64(c.code), uint(c.len))
	}
}

// appendBits writes the first nbits bits of src.
//
//photon:hotpath
func (w *bitWriter) appendBits(src []byte, nbits int) {
	w.flushBytes()
	s, i := w.n, 0
	for ; i+8 <= nbits/8; i += 8 {
		x := binary.LittleEndian.Uint64(src[i:])
		binary.LittleEndian.PutUint64(w.buf[w.pos:], w.acc|x<<s)
		w.pos, w.acc = w.pos+8, x>>(64-s)
	}
	for ; i < nbits/8; i++ {
		w.put(uint64(src[i]), 8)
	}
	if r := uint(nbits % 8); r > 0 {
		w.put(uint64(src[i])&(1<<r-1), r)
	}
}

// stored writes a stored block holding v's exponent bytes.
//
//photon:hotpath
func (w *bitWriter) stored(v []float32, final uint64) {
	w.put(final, 3)
	w.align()
	w.put(uint64(len(v))|uint64(^uint16(len(v)))<<16, 32)
	for i, x := range v {
		w.buf[w.pos+i] = byte(math.Float32bits(x) >> 23)
	}
	w.pos += len(v)
}

// splitHist counts v's exponent bytes and writes each element's sign and
// mantissa (24 bits, little-endian) to rem, four elements to a 12-byte
// store. Four interleaved counters keep a run of equal exponents from
// serialising on one counter.
//
//photon:hotpath
func splitHist(rem []byte, v []float32, freq *[endOfBlock + 1]int32) {
	var h [4][256]int32
	rem = rem[:3*len(v)]
	i := 0
	for ; i+4 <= len(v); i += 4 {
		x0, x1, x2, x3 := v[i], v[i+1], v[i+2], v[i+3]
		h[0][uint8(math.Float32bits(x0)>>23)]++
		h[1][uint8(math.Float32bits(x1)>>23)]++
		h[2][uint8(math.Float32bits(x2)>>23)]++
		h[3][uint8(math.Float32bits(x3)>>23)]++
		m0, m1, m2, m3 := signMantissa(x0), signMantissa(x1), signMantissa(x2), signMantissa(x3)
		binary.LittleEndian.PutUint64(rem[3*i:], uint64(m0)|uint64(m1)<<24|uint64(m2)<<48)
		binary.LittleEndian.PutUint32(rem[3*i+8:], m2>>16|m3<<8)
	}
	for ; i < len(v); i++ {
		h[0][uint8(math.Float32bits(v[i])>>23)]++
		m := signMantissa(v[i])
		rem[3*i], rem[3*i+1], rem[3*i+2] = byte(m), byte(m>>8), byte(m>>16)
	}
	for s := range h[0] {
		freq[s] = h[0][s] + h[1][s] + h[2][s] + h[3][s]
	}
}

// signMantissa packs x's sign above its 23 mantissa bits.
//
//photon:hotpath
func signMantissa(x float32) uint32 {
	b := math.Float32bits(x)
	return b&0x7fffff | b>>8&0x800000
}

// ---- inflater ----

const (
	primBits = 12 // primary table index width; longer codes go through sub
	// A table entry holds up to three literals in bits 0-23, the bits they
	// take in bits 24-27 and a kind in bits 28-31: kinds 1-3 are that many
	// literals, 0 an undecodable code. A subtable link holds its offset in
	// bits 0-15 and its index width in bits 24-27.
	kEOB = 4
	kSub = 5
	kRef = 6 // a length symbol: a back-reference, which this stream shape never holds
)

var (
	errPlaneTruncated = errors.New("link: flate exponent plane is truncated")
	errPlaneLong      = errors.New("link: flate exponent plane inflates past its elems")
	errPlaneShort     = errors.New("link: flate exponent plane inflates short of its elems")
	errPlaneTrailing  = errors.New("link: flate exponent plane has bytes after its final block")
	errPlaneRef       = errors.New("link: flate exponent plane holds a back-reference")
	errPlaneCode      = errors.New("link: flate exponent plane holds an undecodable code")
	errPlaneLengths   = errors.New("link: flate exponent plane has invalid code lengths")
	errPlaneBlock     = errors.New("link: flate exponent plane has a fixed-Huffman or reserved block")
	errPlaneStored    = errors.New("link: flate exponent plane has a stored block whose LEN and NLEN disagree")
	blockErrs         = [...]error{nil, errPlaneLong, errPlaneRef, errPlaneCode, errPlaneTruncated}
)

// inflater decodes one literal-only deflate stream.
type inflater struct {
	src    []byte
	pos    int    // next byte of src to load; loads past the end are zeros
	acc    uint64 // bit buffer, next bit lowest
	n      uint   // valid bits in acc
	prim   [1 << primBits]uint32
	single [1 << primBits]uint32 // prim before packLiterals: one symbol an entry
	sub    [288 << (15 - primBits)]uint32
	lens   [286 + 30]uint8
}

// inflatePlane inflates the deflate stream src into out's exponents, OR-ing
// each into the float whose sign and mantissa are the element's 3 bytes of
// rem (len(rem) == 3·len(out)). The stream must fill out exactly and end at
// the end of src.
func inflatePlane(out []float32, src, rem []byte) error {
	var f inflater
	f.src = src
	i := 0
	for final := false; !final; {
		if f.consumed() > 8*len(src) {
			return errPlaneTruncated
		}
		h := f.take(3)
		final = h&1 == 1
		switch h >> 1 {
		case 0:
			var err error
			if i, err = f.stored(out, rem, i); err != nil {
				return err
			}
		case 2:
			if err := f.header(); err != nil {
				return err
			}
			var st int
			if i, st = f.huffBlock(out, rem, i); st != 0 {
				return blockErrs[st]
			}
		default:
			return errPlaneBlock
		}
	}
	switch c := f.consumed(); {
	case c > 8*len(src):
		return errPlaneTruncated
	case i != len(out):
		return errPlaneShort
	case (c+7)/8 != len(src):
		return errPlaneTrailing
	}
	return nil
}

func (f *inflater) consumed() int { return 8*f.pos - int(f.n) }

// refill tops a bit buffer up to at least 56 bits; bytes past the end of src
// load as zeros.
//
//photon:hotpath
func refill(src []byte, pos int, acc uint64, n uint) (int, uint64, uint) {
	if pos+8 <= len(src) {
		return pos + int(63-n)>>3, acc | binary.LittleEndian.Uint64(src[pos:])<<(n&63), n | 56
	}
	for ; n <= 56; n += 8 {
		if pos < len(src) {
			acc |= uint64(src[pos]) << n
		}
		pos++
	}
	return pos, acc, n
}

//photon:hotpath
func (f *inflater) take(nb uint) uint32 {
	if f.n < nb {
		f.pos, f.acc, f.n = refill(f.src, f.pos, f.acc, f.n)
	}
	v := uint32(f.acc & (1<<nb - 1))
	f.acc, f.n = f.acc>>nb, f.n-nb
	return v
}

// stored copies a stored block's bytes into out from element i on.
func (f *inflater) stored(out []float32, rem []byte, i int) (int, error) {
	p := (f.consumed() + 7) / 8
	if p+4 > len(f.src) {
		return i, errPlaneTruncated
	}
	ln := int(binary.LittleEndian.Uint16(f.src[p:]))
	if uint16(ln) != ^binary.LittleEndian.Uint16(f.src[p+2:]) {
		return i, errPlaneStored
	}
	if p += 4; p+ln > len(f.src) {
		return i, errPlaneTruncated
	}
	if i+ln > len(out) {
		return i, errPlaneLong
	}
	for j, e := range f.src[p : p+ln] {
		out[i+j] = withExp(rem, i+j, uint32(e))
	}
	f.pos, f.acc, f.n = p+ln, 0, 0
	return i + ln, nil
}

// canonical gives lens their RFC 1951 canonical codes, bit-reversed for
// LSB-first reading, and reports the longest length and whether
// compress/flate accepts the lengths: a complete code, its one tolerated
// degenerate code (a single 1-bit code), or no code at all.
func canonical(lens []uint8, codes []uint16) (maxLen int, ok bool) {
	var count, next [16]int
	for _, l := range lens {
		count[l]++
		maxLen = max(maxLen, int(l))
	}
	code := 0
	for l := 1; l <= maxLen; l++ {
		code <<= 1
		next[l] = code
		code += count[l]
	}
	if maxLen > 0 && code != 1<<maxLen && !(code == 1 && maxLen == 1) {
		return maxLen, false
	}
	for s, l := range lens {
		if l != 0 {
			codes[s] = bits.Reverse16(uint16(next[l]) << (16 - l))
			next[l]++
		}
	}
	return maxLen, true
}

// header reads a dynamic block's code lengths (RFC 1951 3.2.7) and builds the
// literal/length decode tables from them.
func (f *inflater) header() error {
	nlit, ndist, nclen := int(f.take(5))+257, int(f.take(5))+1, int(f.take(4))+4
	if nlit > 286 || ndist > 30 {
		return errPlaneLengths
	}
	var cl [19]uint8
	for _, s := range codegenOrder[:nclen] {
		cl[s] = uint8(f.take(3))
	}
	var codes [286]uint16
	if maxLen, ok := canonical(cl[:], codes[:19]); !ok || maxLen == 0 {
		return errPlaneLengths
	}
	var clTab [1 << 7]uint16 // symbol | length<<8; 0 is undecodable
	for s, l := range cl {
		for j := int(codes[s]); l != 0 && j < len(clTab); j += 1 << l {
			clTab[j] = uint16(s) | uint16(l)<<8
		}
	}
	lens := f.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		if f.n < 14 {
			f.pos, f.acc, f.n = refill(f.src, f.pos, f.acc, f.n)
		}
		e := clTab[f.acc&(1<<7-1)]
		if e == 0 {
			return errPlaneCode
		}
		f.acc, f.n = f.acc>>(e>>8), f.n-uint(e>>8)
		if s := uint8(e); s < 16 {
			lens[i] = s
			i++
			continue
		}
		s, val := uint8(e), uint8(0)
		if s == 16 {
			if i == 0 {
				return errPlaneLengths
			}
			val = lens[i-1]
		}
		rep := int(repeatBase[s]) + int(f.take(uint(repeatBits[s])))
		if i+rep > len(lens) {
			return errPlaneLengths
		}
		for ; rep > 0; rep-- {
			lens[i] = val
			i++
		}
	}
	if lens[endOfBlock] == 0 {
		return errPlaneLengths
	}
	if _, ok := canonical(lens[nlit:], codes[:ndist]); !ok {
		return errPlaneLengths
	}
	maxLen, ok := canonical(lens[:nlit], codes[:nlit])
	if !ok {
		return errPlaneLengths
	}
	return f.tables(lens[:nlit], codes[:nlit], maxLen)
}

// tables fills the primary table (and subtables for codes longer than
// primBits) from the literal/length code, then packs into each entry that
// starts with a literal the literals after it that its index bits also decode,
// up to three.
func (f *inflater) tables(lens []uint8, codes []uint16, maxLen int) error {
	clear(f.single[:])
	next := 0
	for s, l := range lens {
		if l == 0 {
			continue
		}
		kind := uint32(1)
		if s == endOfBlock {
			kind = kEOB
		} else if s > endOfBlock {
			kind = kRef
		}
		e, c := uint32(s&0xff)|uint32(l)<<24|kind<<28, int(codes[s])
		if l <= primBits {
			for j := c; j < len(f.single); j += 1 << l {
				f.single[j] = e
			}
			continue
		}
		p, width := c&(1<<primBits-1), maxLen-primBits
		if f.single[p]>>28 != kSub {
			if next+1<<width > len(f.sub) {
				return errPlaneLengths
			}
			f.single[p] = uint32(next) | uint32(width)<<24 | kSub<<28
			next += 1 << width
		}
		base := int(f.single[p] & 0xffff)
		for j := c >> primBits; j < 1<<width; j += 1 << (l - primBits) {
			f.sub[base+j] = e
		}
	}
	packLiterals(&f.prim, &f.single)
	return nil
}

// packLiterals builds prim from single, packing up to three literals into
// each entry that starts with one.
//
//photon:hotpath
func packLiterals(prim, single *[1 << primBits]uint32) {
	const mask = 1<<primBits - 1
	for i, e := range single {
		u := e >> 24 & 15
		e2 := single[i>>u&mask]
		u2 := u + e2>>24&15
		e3 := single[i>>u2&mask]
		u3 := u2 + e3>>24&15
		switch {
		case e>>28 != 1 || e2>>28 != 1 || u2 > primBits:
		case e3>>28 != 1 || u3 > primBits:
			e = e&0xff | (e2&0xff)<<8 | u2<<24 | 2<<28
		default:
			e = e&0xff | (e2&0xff)<<8 | (e3&0xff)<<16 | u3<<24 | 3<<28
		}
		prim[i] = e
	}
}

// huffBlock decodes a Huffman block's symbols into out from element i on,
// through its end-of-block code. It returns the next element and a blockErrs
// index (0 when the block ended cleanly). While four elements remain, an
// entry's three literal slots are all written and the later ones overwritten
// afterwards.
//
//photon:hotpath
func (f *inflater) huffBlock(out []float32, rem []byte, i int) (int, int) {
	src, pos, acc, n := f.src, f.pos, f.acc, f.n
	for {
		if n < 15 {
			if pos+8 > len(src) && 8*pos-int(n) > 8*len(src) {
				return i, 4
			}
			pos, acc, n = refill(src, pos, acc, n)
		}
		e := f.prim[acc&(1<<primBits-1)]
		if e>>28 == kSub {
			e = f.sub[e&0xffff+uint32(acc>>primBits)&(1<<(e>>24&15)-1)]
		}
		l := uint(e >> 24 & 15)
		acc, n = acc>>l, n-l
		if c := int(e >> 28); uint(c-1) < 3 {
			if i+4 <= len(out) {
				out[i] = withExpWord(rem, i, e&0xff)
				out[i+1] = withExpWord(rem, i+1, e>>8&0xff)
				out[i+2] = withExpWord(rem, i+2, e>>16&0xff)
			} else if i+c > len(out) {
				return i, 1
			} else {
				for k := range c {
					out[i+k] = withExp(rem, i+k, e>>(8*k)&0xff)
				}
			}
			i += c
			continue
		}
		switch e >> 28 {
		case kEOB:
			f.pos, f.acc, f.n = pos, acc, n
			return i, 0
		case kRef:
			return i, 2
		default:
			return i, 3
		}
	}
}

// withExp is element i's float: exponent e and the sign and mantissa in rem.
//
//photon:hotpath
func withExp(rem []byte, i int, e uint32) float32 {
	r := rem[3*i : 3*i+3]
	m := uint32(r[0]) | uint32(r[1])<<8 | uint32(r[2])<<16
	return math.Float32frombits(m&0x7fffff | m<<8&0x80000000 | e<<23)
}

// withExpWord is withExp reading rem as one 4-byte word, so i must not be
// the last element.
//
//photon:hotpath
func withExpWord(rem []byte, i int, e uint32) float32 {
	m := binary.LittleEndian.Uint32(rem[3*i:])
	return math.Float32frombits(m&0x7fffff | m<<8&0x80000000 | e<<23)
}
