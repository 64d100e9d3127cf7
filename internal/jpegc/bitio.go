package jpegc

import (
	"encoding/binary"
	"fmt"
	"io"
)

// This file implements the entropy-coded-segment bit I/O around 64-bit
// accumulators (DESIGN.md §11): the writer packs whole Huffman symbols into
// an unstuffed per-chunk bit string that the splicer stuffs and joins; the
// reader decodes from an in-memory segment, refilling its accumulator by
// words with inline 0xFF00 unstuffing instead of bit-at-a-time byte reads,
// and can report its position as an unstuffed bit offset, which is what
// the chunked decode synchronizes on.

// bitBuf accumulates one chunk of a scan as an unstuffed MSB-first bit
// string. Chunks are emitted independently and spliceScan joins them, so
// the writer never needs to know where in the stream its bits land: 0xFF
// stuffing, the final padding and restart markers are all the splice's job.
type bitBuf struct {
	acc  uint64
	nAcc uint // bits pending in acc; below 32 between calls
	buf  []byte
}

// WriteBits appends the low n bits of v, most significant first. n <= 32,
// so one call can carry a full Huffman code plus its magnitude bits.
func (b *bitBuf) WriteBits(v uint32, n uint) {
	b.acc = b.acc<<n | uint64(v)&(1<<n-1)
	b.nAcc += n
	if b.nAcc >= 32 {
		b.nAcc -= 32
		b.buf = binary.BigEndian.AppendUint32(b.buf, uint32(b.acc>>b.nAcc))
	}
}

// drain moves every whole pending byte into buf.
func (b *bitBuf) drain() {
	for b.nAcc >= 8 {
		b.nAcc -= 8
		b.buf = append(b.buf, byte(b.acc>>b.nAcc))
	}
}

// alignOnes pads the bit string to a byte boundary with 1-bits, as the
// JPEG standard requires before a restart marker, and drains it into buf.
func (b *bitBuf) alignOnes() {
	if r := b.nAcc % 8; r != 0 {
		b.WriteBits(1<<(8-r)-1, 8-r)
	}
	b.drain()
}

// finish drains the pending bits into buf, the last partial byte
// left-aligned over zero bits, and returns the bit string's length.
func (b *bitBuf) finish() int {
	n := 8*len(b.buf) + int(b.nAcc)
	b.drain()
	if b.nAcc > 0 {
		b.buf = append(b.buf, byte(b.acc<<(8-b.nAcc)))
		b.nAcc = 0
	}
	return n
}

// splicer writes bit strings as one entropy-coded segment: it shifts each
// string into place behind the previous one, inserts the 0x00 stuffing
// byte after every 0xFF data byte, and emits restart markers unstuffed.
type splicer struct {
	out   []byte // finished, stuffed bytes
	carry byte   // the pending partial byte: its top r bits are data
	r     uint
}

// appendBits appends the first nbits bits of src. Bits of src past nbits
// must be zero.
func (s *splicer) appendBits(src []byte, nbits int) {
	full := nbits / 8
	r := s.r
	// Eight whole bytes at a time: shift them into place behind the carry
	// and copy them out unless one of the shifted bytes is 0xFF.
	for ; full >= 8; full -= 8 {
		w := binary.BigEndian.Uint64(src)
		o := uint64(s.carry)<<56 | w>>r
		s.carry = byte(w << (8 - r))
		if inv := ^o; (inv-0x0101010101010101)&^inv&0x8080808080808080 == 0 {
			s.out = binary.BigEndian.AppendUint64(s.out, o)
		} else {
			for i := 56; i >= 0; i -= 8 {
				s.put(byte(o >> i))
			}
		}
		src = src[8:]
	}
	for _, x := range src[:full] {
		s.put(s.carry | x>>r)
		s.carry = x << (8 - r)
	}
	if k := uint(nbits % 8); k > 0 {
		x := src[full]
		if r+k >= 8 {
			s.put(s.carry | x>>r)
			s.carry, s.r = x<<(8-r), r+k-8
		} else {
			s.carry, s.r = s.carry|x>>r, r+k
		}
	}
}

// put appends one finished data byte, stuffed.
func (s *splicer) put(b byte) {
	s.out = append(s.out, b)
	if b == 0xff {
		s.out = append(s.out, 0x00)
	}
}

// padToByte completes the pending partial byte with 1-bits.
func (s *splicer) padToByte() {
	if s.r > 0 {
		s.put(s.carry | 0xff>>s.r)
		s.carry, s.r = 0, 0
	}
}

// restart pads to a byte boundary and emits RST(idx mod 8). Restart markers
// are real markers: they are not stuffed.
func (s *splicer) restart(idx int) {
	s.padToByte()
	s.out = append(s.out, 0xff, markerRST0+byte(idx&7))
}

// bitReader reads MSB-first bits from an in-memory entropy-coded segment,
// removing 0x00 stuffing bytes after 0xFF. A real marker (0xFF followed by
// a nonzero byte) or the end of the slice ends the bit supply: reads past
// it return an error. The zero value with data set is ready to use.
type bitReader struct {
	data   []byte
	pos    int
	acc    uint64 // next nAcc bits, MSB-first, in the low bits
	nAcc   uint
	stop   bool // no more bytes: marker, dangling 0xFF, or end of data
	marker byte // the marker byte that stopped the stream, if any
	// skipped counts the stuffing bytes consumed, so bitPos can convert
	// byte positions to unstuffed bit offsets.
	skipped int
}

func newBitReader(data []byte) bitReader { return bitReader{data: data} }

var errMarkerInBitstream = fmt.Errorf("jpegc: marker encountered in entropy-coded data")

// fill tops the accumulator up to at least 57 bits or until the byte
// supply ends. The fast path loads four stuffing-free bytes per iteration.
func (br *bitReader) fill() {
	if br.stop {
		return
	}
	data, pos := br.data, br.pos
	for br.nAcc <= 32 && pos+4 <= len(data) {
		w := uint32(data[pos])<<24 | uint32(data[pos+1])<<16 |
			uint32(data[pos+2])<<8 | uint32(data[pos+3])
		// Zero-byte trick on the inverted word: any 0xFF byte in w makes
		// the corresponding byte of ^w zero.
		inv := ^w
		if (inv-0x01010101)&^inv&0x80808080 != 0 {
			break // a 0xFF byte needs the unstuffing slow path
		}
		br.acc = br.acc<<32 | uint64(w)
		br.nAcc += 32
		pos += 4
	}
	for br.nAcc <= 56 {
		if pos >= len(data) {
			br.stop = true
			break
		}
		b := data[pos]
		if b == 0xff {
			if pos+1 >= len(data) {
				// Dangling 0xFF at the end of the segment: a conforming
				// encoder always stuffs, so this is a truncated stream.
				br.stop = true
				break
			}
			if next := data[pos+1]; next != 0x00 {
				br.stop = true
				br.marker = next
				break
			}
			pos += 2 // 0xFF00 unstuffs to a 0xFF data byte
			br.skipped++
		} else {
			pos++
		}
		br.acc = br.acc<<8 | uint64(b)
		br.nAcc += 8
	}
	br.pos = pos
}

// bitPos returns the offset, in unstuffed bits from the start of data, of
// the next bit the reader returns.
func (br *bitReader) bitPos() int64 {
	return 8*int64(br.pos-br.skipped) - int64(br.nAcc)
}

// exhausted returns the error for running out of bits.
func (br *bitReader) exhausted() error {
	if br.marker != 0 {
		return errMarkerInBitstream
	}
	return fmt.Errorf("jpegc: truncated entropy data: %w", io.ErrUnexpectedEOF)
}

// ReadBits reads n bits MSB-first. n <= 32.
func (br *bitReader) ReadBits(n int) (uint32, error) {
	if n == 0 {
		return 0, nil
	}
	if br.nAcc < uint(n) {
		br.fill()
		if br.nAcc < uint(n) {
			return 0, br.exhausted()
		}
	}
	br.nAcc -= uint(n)
	return uint32(br.acc>>br.nAcc) & (1<<n - 1), nil
}

// ReadBit returns the next bit of the entropy-coded segment.
func (br *bitReader) ReadBit() (int, error) {
	v, err := br.ReadBits(1)
	return int(v), err
}

// countingWriter counts bytes written; used to measure encoded sizes without
// buffering entire streams.
type countingWriter struct{ n int64 }

// Write implements io.Writer by counting.
func (cw *countingWriter) Write(p []byte) (int, error) {
	cw.n += int64(len(p))
	return len(p), nil
}
