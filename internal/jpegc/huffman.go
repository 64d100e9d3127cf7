package jpegc

import (
	"fmt"
	"math/bits"
	"sync"
)

// maxCodeLength is the longest Huffman code baseline JPEG permits.
const maxCodeLength = 16

// HuffmanSpec describes a Huffman table the way the JPEG standard does:
// Counts[i] is the number of codes of length i+1 bits, and Values lists the
// symbols in order of increasing code length.
type HuffmanSpec struct {
	Counts [maxCodeLength]byte
	Values []byte
}

// Validate checks that the spec describes a decodable prefix code.
func (s *HuffmanSpec) Validate() error {
	total := 0
	code := 0
	for i, n := range s.Counts {
		code <<= 1
		total += int(n)
		code += int(n)
		if code > 1<<(i+1) {
			return fmt.Errorf("jpegc: huffman spec overflows at length %d", i+1)
		}
	}
	if total != len(s.Values) {
		return fmt.Errorf("jpegc: huffman spec has %d counts but %d values", total, len(s.Values))
	}
	if total == 0 {
		return fmt.Errorf("jpegc: empty huffman spec")
	}
	if total > 256 {
		return fmt.Errorf("jpegc: huffman spec has %d symbols, max 256", total)
	}
	var seen [256]bool
	for _, v := range s.Values {
		if seen[v] {
			return fmt.Errorf("jpegc: duplicate symbol %#x in huffman spec", v)
		}
		seen[v] = true
	}
	return nil
}

// encTable maps a symbol to its code word for encoding.
type encTable struct {
	code [256]uint32
	size [256]uint8 // 0 means the symbol has no code
}

func newEncTable(s *HuffmanSpec) (*encTable, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	t := &encTable{}
	code := uint32(0)
	vi := 0
	for length := 1; length <= maxCodeLength; length++ {
		for n := 0; n < int(s.Counts[length-1]); n++ {
			sym := s.Values[vi]
			t.code[sym] = code
			t.size[sym] = uint8(length)
			code++
			vi++
		}
		code <<= 1
	}
	return t, nil
}

// lutBits is the first-level lookup width of the decoder: every code of at
// most lutBits bits resolves with a single table probe.
const lutBits = 8

// decTable supports two decoding strategies over the same canonical code:
// a two-level fast path (an 8-bit first-level LUT resolving codes of up to
// 8 bits in one probe, with a mincode/maxcode walk for the longer tail)
// and the standard bit-at-a-time method (JPEG spec F.2.2.3), kept as
// decodeReference to verify the fast path against.
type decTable struct {
	// lut maps the next 8 bits of the stream to symbol<<8 | codeLength for
	// codes of at most 8 bits; 0 means "longer code, take the slow path".
	lut     [1 << lutBits]uint16
	mincode [maxCodeLength + 1]int32
	maxcode [maxCodeLength + 1]int32 // -1 when no codes of this length
	valptr  [maxCodeLength + 1]int
	values  []byte
	valbuf  [256]byte // backing storage for values
}

// decTablePool recycles decode tables between Decode calls. A reused table
// only needs its LUT cleared and maxcode rewritten: the slow-path walk
// guards every mincode/valptr read behind maxcode, which newDecTable sets
// for every length.
var decTablePool = sync.Pool{New: func() any { return new(decTable) }}

// putDecTable hands a table back; the caller must hold the only reference.
func putDecTable(t *decTable) {
	if t == nil {
		return
	}
	t.values = nil
	decTablePool.Put(t)
}

func newDecTable(s *HuffmanSpec) (*decTable, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	t := decTablePool.Get().(*decTable)
	t.lut = [1 << lutBits]uint16{}
	// Values are copied into the table's own backing array (at most 256 of
	// them), so the spec may alias a transient segment body.
	t.values = append(t.valbuf[:0], s.Values...)
	code := int32(0)
	vi := 0
	for length := 1; length <= maxCodeLength; length++ {
		n := int(s.Counts[length-1])
		if n == 0 {
			t.maxcode[length] = -1
		} else {
			t.valptr[length] = vi
			t.mincode[length] = code
			if length <= lutBits {
				// Every LUT slot whose top `length` bits equal the code
				// decodes to this symbol.
				for i := 0; i < n; i++ {
					base := int(code+int32(i)) << (lutBits - length)
					entry := uint16(s.Values[vi+i])<<8 | uint16(length)
					for j := 0; j < 1<<(lutBits-length); j++ {
						t.lut[base+j] = entry
					}
				}
			}
			code += int32(n)
			vi += n
			t.maxcode[length] = code - 1
		}
		code <<= 1
	}
	return t, nil
}

// decode reads one symbol from the bit reader via the two-level fast path.
// It is bit-exact with decodeReference (TestLUTDecodeMatchesReference).
func (t *decTable) decode(br *bitReader) (byte, error) {
	if br.nAcc < maxCodeLength {
		br.fill()
	}
	n := br.nAcc
	if n >= lutBits {
		if e := t.lut[uint8(br.acc>>(n-lutBits))]; e != 0 {
			br.nAcc = n - uint(e&0xff)
			return byte(e >> 8), nil
		}
		// The next code is longer than lutBits; resolve it with the
		// canonical mincode/maxcode walk over the remaining lengths.
		if n >= maxCodeLength {
			w := int32(br.acc>>(n-maxCodeLength)) & (1<<maxCodeLength - 1)
			for length := lutBits + 1; length <= maxCodeLength; length++ {
				code := w >> (maxCodeLength - length)
				if t.maxcode[length] >= 0 && code <= t.maxcode[length] {
					br.nAcc = n - uint(length)
					return t.values[t.valptr[length]+int(code-t.mincode[length])], nil
				}
			}
			return 0, fmt.Errorf("jpegc: invalid huffman code")
		}
	}
	// Fewer than 16 bits remain before the segment ends: fall back to the
	// bit-at-a-time path, which reports exhaustion precisely.
	return t.decodeReference(br)
}

// decodeReference reads one symbol bit-at-a-time per JPEG spec F.2.2.3.
// It is the verification baseline for the LUT fast path and the tail
// decoder near the end of a segment.
func (t *decTable) decodeReference(br *bitReader) (byte, error) {
	code := int32(0)
	for length := 1; length <= maxCodeLength; length++ {
		bit, err := br.ReadBit()
		if err != nil {
			return 0, err
		}
		code = code<<1 | int32(bit)
		if t.maxcode[length] >= 0 && code <= t.maxcode[length] {
			return t.values[t.valptr[length]+int(code-t.mincode[length])], nil
		}
	}
	return 0, fmt.Errorf("jpegc: invalid huffman code")
}

// BuildOptimalSpec constructs a length-limited Huffman table for the given
// symbol frequencies using the JPEG standard's procedure (Annex K.3 /
// libjpeg jpeg_gen_optimal_table): merge the two least-frequent symbols
// repeatedly, then shorten any code longer than 16 bits by the standard
// bit-count adjustment. A virtual symbol 256 with frequency 1 is reserved so
// that no real symbol receives the all-ones code.
//
// This is the mechanism behind PuPPIeS-C (paper §IV-B.3): after
// perturbation the default Annex K tables are badly matched to the symbol
// distribution, and rebuilding them removes the ~10x size blowup of
// PuPPIeS-B.
func BuildOptimalSpec(freq *[256]int64) (HuffmanSpec, error) {
	// freq2 has 257 entries; index 256 is the reserved symbol.
	var freq2 [257]int64
	for i, f := range freq {
		if f < 0 {
			return HuffmanSpec{}, fmt.Errorf("jpegc: negative frequency for symbol %d", i)
		}
		freq2[i] = f
	}
	freq2[256] = 1

	var codesize [257]int
	var others [257]int
	for i := range others {
		others[i] = -1
	}

	for {
		// Find v1: least-frequency nonzero symbol, preferring the largest
		// symbol value on ties (libjpeg behaviour).
		c1, c2 := -1, -1
		v := int64(1) << 62
		for i := 0; i <= 256; i++ {
			if freq2[i] != 0 && freq2[i] <= v {
				v = freq2[i]
				c1 = i
			}
		}
		// Find v2: next least-frequency nonzero symbol.
		v = int64(1) << 62
		for i := 0; i <= 256; i++ {
			if freq2[i] != 0 && freq2[i] <= v && i != c1 {
				v = freq2[i]
				c2 = i
			}
		}
		if c2 < 0 {
			break // only one symbol chain left: done
		}

		freq2[c1] += freq2[c2]
		freq2[c2] = 0

		codesize[c1]++
		for others[c1] >= 0 {
			c1 = others[c1]
			codesize[c1]++
		}
		others[c1] = c2
		codesize[c2]++
		for others[c2] >= 0 {
			c2 = others[c2]
			codesize[c2]++
		}
	}

	// Count codes of each length; lengths can reach 32 here.
	var bits [33]int
	for i := 0; i <= 256; i++ {
		if codesize[i] > 0 {
			if codesize[i] > 32 {
				return HuffmanSpec{}, fmt.Errorf("jpegc: huffman code length %d exceeds 32", codesize[i])
			}
			bits[codesize[i]]++
		}
	}

	// JPEG spec adjustment: fold lengths above 16 down.
	for i := 32; i > maxCodeLength; i-- {
		for bits[i] > 0 {
			j := i - 2
			for bits[j] == 0 {
				j--
			}
			bits[i] -= 2
			bits[i-1]++
			bits[j+1] += 2
			bits[j]--
		}
	}
	// Remove the reserved symbol's code (the longest one).
	for i := maxCodeLength; i >= 1; i-- {
		if bits[i] > 0 {
			bits[i]--
			break
		}
	}

	var spec HuffmanSpec
	nSyms := 0
	for i := 1; i <= maxCodeLength; i++ {
		spec.Counts[i-1] = byte(bits[i])
		nSyms += bits[i]
	}
	// Values are listed in increasing (code length, symbol) order; a
	// counting pass over the lengths replaces the old sort.Slice (this runs
	// once per table per image on the optimized-tables path). The bit-count
	// adjustment preserved relative symbol ordering well enough for a valid
	// canonical code because total counts per length match the symbol list.
	spec.Values = make([]byte, 0, nSyms)
	for length := 1; length <= 32; length++ {
		for i := 0; i < 256; i++ {
			if codesize[i] == length {
				spec.Values = append(spec.Values, byte(i))
			}
		}
	}
	if err := spec.Validate(); err != nil {
		return HuffmanSpec{}, err
	}
	return spec, nil
}

// magnitudeCategory returns the JPEG size category of v: the number of bits
// needed to represent |v| (0 for v == 0).
func magnitudeCategory(v int32) int {
	return bits.Len32(abs32(v))
}

// abs32 returns |v| without a branch; abs32(math.MinInt32) is 1<<31.
func abs32(v int32) uint32 {
	s := v >> 31
	return uint32((v ^ s) - s)
}

// magnitudeBits returns the SSSS magnitude bits for value v in category size
// per JPEG's convention: nonnegative values are emitted as-is; negative
// values as v-1 truncated to size bits (one's complement of |v|).
func magnitudeBits(v int32, size int) uint32 {
	return uint32(v+v>>31) & ((1 << size) - 1)
}

// extendMagnitude inverts magnitudeBits: reconstructs the signed value from
// size magnitude bits (JPEG spec F.2.2.1 EXTEND).
func extendMagnitude(bits uint32, size int) int32 {
	if size == 0 {
		return 0
	}
	v := int32(bits)
	if v < 1<<(size-1) {
		v -= (1 << size) - 1
	}
	return v
}
