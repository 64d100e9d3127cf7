package jpegc

import (
	"fmt"
	"io"
)

// This file implements the entropy-coded-segment bit I/O around 64-bit
// accumulators (DESIGN.md §11): the writer packs whole Huffman symbols and
// stages bytes in a pooled buffer instead of issuing per-byte Writes; the
// reader decodes from an in-memory segment, refilling its accumulator by
// words with inline 0xFF00 unstuffing instead of bit-at-a-time byte reads.

// bitWriter writes MSB-first bits into a JPEG entropy-coded segment,
// inserting the mandatory 0x00 stuffing byte after every 0xFF data byte.
// Bytes are staged in a pooled buffer and flushed to the underlying writer
// in large chunks; release() must be called when done.
type bitWriter struct {
	w    io.Writer
	acc  uint64
	nAcc uint
	buf  []byte
	err  error
}

// writerFlushAt is the staging-buffer occupancy that triggers a flush to
// the underlying writer. It stays below the pooled buffer's capacity so
// appends rarely reallocate.
const writerFlushAt = 1 << 15

func newBitWriter(w io.Writer) *bitWriter {
	return &bitWriter{w: w, buf: byteBufPool.GetEmpty(byteBufCap)}
}

// release returns the staging buffer to the pool. The writer must not be
// used afterwards.
func (bw *bitWriter) release() {
	byteBufPool.Put(bw.buf)
	bw.buf = nil
}

// WriteBits writes the low n bits of v, most significant first. n <= 32,
// so one call can carry a full Huffman code plus its magnitude bits.
func (bw *bitWriter) WriteBits(v uint32, n uint) {
	if bw.err != nil || n == 0 {
		return
	}
	bw.acc = bw.acc<<n | uint64(v)&((1<<n)-1)
	bw.nAcc += n
	for bw.nAcc >= 8 {
		bw.nAcc -= 8
		b := byte(bw.acc >> bw.nAcc)
		bw.buf = append(bw.buf, b)
		if b == 0xff {
			bw.buf = append(bw.buf, 0x00)
		}
	}
	if len(bw.buf) >= writerFlushAt {
		bw.flushBuf()
	}
}

// flushBuf drains the staging buffer to the underlying writer.
func (bw *bitWriter) flushBuf() {
	if bw.err == nil && len(bw.buf) > 0 {
		if _, err := bw.w.Write(bw.buf); err != nil {
			bw.err = err
		}
	}
	bw.buf = bw.buf[:0]
}

// padToByte pads any partial byte with 1-bits (as the JPEG standard
// requires) and drains it into the staging buffer.
func (bw *bitWriter) padToByte() {
	if bw.nAcc > 0 {
		bw.WriteBits((1<<(8-bw.nAcc))-1, 8-bw.nAcc)
	}
}

// WriteRestart pads to a byte boundary and emits RST(idx mod 8). Restart
// markers are real markers: they are not byte-stuffed.
func (bw *bitWriter) WriteRestart(idx int) {
	if bw.err != nil {
		return
	}
	bw.padToByte()
	bw.buf = append(bw.buf, 0xff, markerRST0+byte(idx&7))
}

// setErr records the first error encountered by callers that detect
// problems outside WriteBits itself.
func (bw *bitWriter) setErr(err error) {
	if bw.err == nil {
		bw.err = err
	}
}

// Flush pads the final partial byte and writes all staged bytes out.
func (bw *bitWriter) Flush() error {
	if bw.err != nil {
		return bw.err
	}
	bw.padToByte()
	bw.flushBuf()
	return bw.err
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
		} else {
			pos++
		}
		br.acc = br.acc<<8 | uint64(b)
		br.nAcc += 8
	}
	br.pos = pos
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
