package jpegc

import "io"

// bitWriter stuffs each byte as it completes, so it is an independent
// reference for spliceScan, which stuffs whole chunks after the fact: the
// reference walk and the Huffman tests build their streams with it.

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
