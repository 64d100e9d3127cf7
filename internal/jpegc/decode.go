package jpegc

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync"

	"puppies/internal/dct"
	"puppies/internal/parallel"
)

// Decode parses a baseline JFIF stream into a coefficient image. Supported
// streams: 8-bit baseline sequential Huffman, grayscale or 3 components
// with sampling factors up to 2x2 (4:4:4, 4:2:2, 4:4:0, 4:2:0 — i.e. this
// package's own output plus standard encoder output such as Go's
// image/jpeg). Components keep their native geometry: subsampled chroma is
// NOT upsampled on import, so every coefficient of every component
// survives decode→encode bit-exactly (see Image.Normalize444 for the
// legacy 4:4:4 conversion). Progressive streams return an error.
func Decode(r io.Reader) (*Image, error) {
	return decode(r, 0)
}

// decode is Decode with the scan split into the given number of chunks;
// chunks <= 0 derives the count from the block count (scanChunks). Any
// count decodes the same image.
func decode(r io.Reader, chunks int) (*Image, error) {
	br := decReaderPool.Get().(*bufio.Reader)
	br.Reset(r)
	d := &decoder{r: br, chunks: chunks}
	err := d.run()
	br.Reset(nil)
	decReaderPool.Put(br)
	// The Huffman tables never outlive the decode; recycle them. Each slot
	// holds a pointer no other slot shares (redefined tables are simply
	// dropped to the GC).
	for i := range d.dcDec {
		putDecTable(d.dcDec[i])
		putDecTable(d.acDec[i])
	}
	if err != nil {
		// A failed decode may have allocated its grids already; nothing
		// escapes, so hand them straight back.
		if d.img != nil {
			d.img.Recycle()
		}
		return nil, err
	}
	return d.img, nil
}

// decReaderPool recycles the decoder's input buffer. Nothing returned from
// Decode aliases it: segment bodies are copied out by readSegmentBody and
// entropy data is appended into its own buffer.
var decReaderPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 4096) }}

// maxDecodePixels bounds decoded image area so crafted SOF headers cannot
// trigger multi-gigabyte allocations (coefficient storage is 256 bytes per
// 64-pixel block per component). 2^26 pixels comfortably covers the paper's
// largest corpus images (2448x3264 = 8M pixels).
const maxDecodePixels = 1 << 26

type decComponent struct {
	id      byte
	quantID byte
	dcTable byte
	acTable byte
	hSamp   int
	vSamp   int
}

type decoder struct {
	r     *bufio.Reader
	img   *Image
	comps []decComponent

	quant [4]dct.QuantTable
	dcDec [4]*decTable
	acDec [4]*decTable

	restartInterval int
	sawSOF          bool
	sawScan         bool
	maxH, maxV      int
	// pending is a marker byte captured while buffering entropy-coded data,
	// handed back to the marker loop by nextMarker.
	pending byte
	// zeroed reports that every grid came zeroed from the allocator, so the
	// scan need not zero blocks before decoding into them.
	zeroed bool
	// chunks is the scan's chunk count; 0 derives it (scanChunks).
	chunks int
}

func (d *decoder) run() error {
	// Expect SOI.
	b0, err := d.r.ReadByte()
	if err != nil {
		return fmt.Errorf("jpegc: read SOI: %w", err)
	}
	b1, err := d.r.ReadByte()
	if err != nil {
		return fmt.Errorf("jpegc: read SOI: %w", err)
	}
	if b0 != 0xff || b1 != markerSOI {
		return fmt.Errorf("jpegc: missing SOI marker (got %#x %#x)", b0, b1)
	}

	for {
		marker, err := d.nextMarker()
		if err != nil {
			return err
		}
		switch {
		case marker == markerEOI:
			if !d.sawScan {
				return fmt.Errorf("jpegc: EOI before any scan")
			}
			return nil
		case marker == markerSOF0:
			if err := d.parseSOF(); err != nil {
				return err
			}
		case marker == 0xc1 || marker == 0xc2 || marker == 0xc3 ||
			(marker >= 0xc5 && marker <= 0xc7) || (marker >= 0xc9 && marker <= 0xcb) ||
			(marker >= 0xcd && marker <= 0xcf):
			return fmt.Errorf("jpegc: unsupported SOF marker %#x (only baseline SOF0)", marker)
		case marker == markerDQT:
			if err := d.parseDQT(); err != nil {
				return err
			}
		case marker == markerDHT:
			if err := d.parseDHT(); err != nil {
				return err
			}
		case marker == markerDRI:
			if err := d.parseDRI(); err != nil {
				return err
			}
		case marker == markerSOS:
			if err := d.parseSOSAndScan(); err != nil {
				return err
			}
		default:
			// Skip APPn, COM and other segments with a length field.
			if err := d.skipSegment(marker); err != nil {
				return err
			}
		}
	}
}

// nextMarker reads until the next 0xFF <nonzero> marker.
func (d *decoder) nextMarker() (byte, error) {
	if m := d.pending; m != 0 {
		d.pending = 0
		if m != 0xff { // a pending 0xFF is a fill byte, not a marker
			return m, nil
		}
	}
	for {
		b, err := d.r.ReadByte()
		if err != nil {
			return 0, fmt.Errorf("jpegc: read marker: %w", err)
		}
		if b != 0xff {
			continue
		}
		// Skip fill bytes (0xFF) and find the marker code.
		for {
			m, err := d.r.ReadByte()
			if err != nil {
				return 0, fmt.Errorf("jpegc: read marker: %w", err)
			}
			if m == 0xff {
				continue
			}
			if m == 0x00 {
				break // stuffed byte, not a marker
			}
			return m, nil
		}
	}
}

func (d *decoder) readSegmentBody() ([]byte, error) {
	var lenBuf [2]byte
	if _, err := io.ReadFull(d.r, lenBuf[:]); err != nil {
		return nil, fmt.Errorf("jpegc: read segment length: %w", err)
	}
	n := int(lenBuf[0])<<8 | int(lenBuf[1])
	if n < 2 {
		return nil, fmt.Errorf("jpegc: segment length %d too short", n)
	}
	body := make([]byte, n-2)
	if _, err := io.ReadFull(d.r, body); err != nil {
		return nil, fmt.Errorf("jpegc: read segment body: %w", err)
	}
	return body, nil
}

func (d *decoder) skipSegment(marker byte) error {
	if marker >= markerRST0 && marker <= markerRST7 {
		return nil // restart markers are parameterless
	}
	if marker == 0x01 { // TEM, parameterless
		return nil
	}
	_, err := d.readSegmentBody()
	return err
}

func (d *decoder) parseDQT() error {
	body, err := d.readSegmentBody()
	if err != nil {
		return err
	}
	for len(body) > 0 {
		pq := body[0] >> 4
		tq := body[0] & 0x0f
		if tq > 3 {
			return fmt.Errorf("jpegc: DQT table id %d out of range", tq)
		}
		body = body[1:]
		switch pq {
		case 0:
			if len(body) < dct.BlockLen {
				return fmt.Errorf("jpegc: truncated 8-bit DQT")
			}
			for zz := 0; zz < dct.BlockLen; zz++ {
				d.quant[tq][dct.ZigZag[zz]] = uint16(body[zz])
			}
			body = body[dct.BlockLen:]
		case 1:
			if len(body) < 2*dct.BlockLen {
				return fmt.Errorf("jpegc: truncated 16-bit DQT")
			}
			for zz := 0; zz < dct.BlockLen; zz++ {
				d.quant[tq][dct.ZigZag[zz]] = uint16(body[2*zz])<<8 | uint16(body[2*zz+1])
			}
			body = body[2*dct.BlockLen:]
		default:
			return fmt.Errorf("jpegc: DQT precision %d invalid", pq)
		}
		for i, v := range d.quant[tq] {
			if v < 1 || v > 255 {
				return fmt.Errorf("jpegc: DQT table %d step %d at index %d out of range [1,255]", tq, v, i)
			}
		}
	}
	return nil
}

func (d *decoder) parseDHT() error {
	body, err := d.readSegmentBody()
	if err != nil {
		return err
	}
	for len(body) > 0 {
		if len(body) < 17 {
			return fmt.Errorf("jpegc: truncated DHT header")
		}
		class := body[0] >> 4
		id := body[0] & 0x0f
		if class > 1 || id > 3 {
			return fmt.Errorf("jpegc: DHT class %d id %d out of range", class, id)
		}
		var spec HuffmanSpec
		total := 0
		for i := 0; i < maxCodeLength; i++ {
			spec.Counts[i] = body[1+i]
			total += int(body[1+i])
		}
		if len(body) < 17+total {
			return fmt.Errorf("jpegc: truncated DHT values")
		}
		// newDecTable copies the values out, so the spec may alias body.
		spec.Values = body[17 : 17+total]
		body = body[17+total:]
		tbl, err := newDecTable(&spec)
		if err != nil {
			return fmt.Errorf("jpegc: DHT class %d id %d: %w", class, id, err)
		}
		if class == 0 {
			d.dcDec[id] = tbl
		} else {
			d.acDec[id] = tbl
		}
	}
	return nil
}

func (d *decoder) parseDRI() error {
	body, err := d.readSegmentBody()
	if err != nil {
		return err
	}
	if len(body) != 2 {
		return fmt.Errorf("jpegc: DRI segment length %d, want 2", len(body))
	}
	d.restartInterval = int(body[0])<<8 | int(body[1])
	return nil
}

func (d *decoder) parseSOF() error {
	if d.sawSOF {
		return fmt.Errorf("jpegc: multiple SOF markers")
	}
	body, err := d.readSegmentBody()
	if err != nil {
		return err
	}
	if len(body) < 6 {
		return fmt.Errorf("jpegc: truncated SOF")
	}
	if body[0] != 8 {
		return fmt.Errorf("jpegc: sample precision %d unsupported (only 8-bit)", body[0])
	}
	h := int(body[1])<<8 | int(body[2])
	w := int(body[3])<<8 | int(body[4])
	nComp := int(body[5])
	if nComp != 1 && nComp != 3 {
		return fmt.Errorf("jpegc: %d components unsupported (only 1 or 3)", nComp)
	}
	if len(body) < 6+3*nComp {
		return fmt.Errorf("jpegc: truncated SOF component list")
	}
	if w <= 0 || h <= 0 {
		return fmt.Errorf("jpegc: invalid dimensions %dx%d", w, h)
	}
	if w*h > maxDecodePixels {
		return fmt.Errorf("jpegc: image %dx%d exceeds the %d-pixel decode limit", w, h, maxDecodePixels)
	}
	d.comps = make([]decComponent, nComp)
	d.maxH, d.maxV = 1, 1
	for i := 0; i < nComp; i++ {
		c := body[6+3*i : 9+3*i]
		d.comps[i] = decComponent{
			id:      c[0],
			hSamp:   int(c[1] >> 4),
			vSamp:   int(c[1] & 0x0f),
			quantID: c[2],
		}
		hs, vs := d.comps[i].hSamp, d.comps[i].vSamp
		if hs < 1 || hs > 2 || vs < 1 || vs > 2 {
			return fmt.Errorf("jpegc: component %d uses %dx%d sampling; factors must be 1 or 2", i, hs, vs)
		}
		if d.comps[i].quantID > 3 {
			return fmt.Errorf("jpegc: component %d quant table id %d out of range", i, d.comps[i].quantID)
		}
		if hs > d.maxH {
			d.maxH = hs
		}
		if vs > d.maxV {
			d.maxV = vs
		}
	}
	if nComp == 1 && (d.maxH != 1 || d.maxV != 1) {
		return fmt.Errorf("jpegc: grayscale stream with sampling factors %dx%d", d.maxH, d.maxV)
	}
	// Allocate per-component grids padded to whole MCUs; finishSampling
	// trims the padding back to each component's nominal grid after the
	// scan. Recycled grids are not cleared: a scan that decodes writes
	// every block of them, zeroing each just before, and a failed one is
	// recycled unread.
	mcusX := (w + 8*d.maxH - 1) / (8 * d.maxH)
	mcusY := (h + 8*d.maxV - 1) / (8 * d.maxV)
	d.img = &Image{W: w, H: h, Comps: make([]Component, nComp)}
	d.zeroed = true
	for i := range d.img.Comps {
		bw := mcusX * d.comps[i].hSamp
		bh := mcusY * d.comps[i].vSamp
		blocks, zeroed := getGrid(bw * bh)
		d.img.Comps[i] = Component{BlocksW: bw, BlocksH: bh, Blocks: blocks}
		d.zeroed = d.zeroed && zeroed
	}
	d.sawSOF = true
	return nil
}

func (d *decoder) parseSOSAndScan() error {
	if !d.sawSOF {
		return fmt.Errorf("jpegc: SOS before SOF")
	}
	body, err := d.readSegmentBody()
	if err != nil {
		return err
	}
	if len(body) < 1 {
		return fmt.Errorf("jpegc: truncated SOS")
	}
	nScan := int(body[0])
	if nScan != len(d.comps) {
		return fmt.Errorf("jpegc: scan has %d components, frame has %d (non-interleaved unsupported)",
			nScan, len(d.comps))
	}
	if len(body) < 1+2*nScan+3 {
		return fmt.Errorf("jpegc: truncated SOS component list")
	}
	for i := 0; i < nScan; i++ {
		cs := body[1+2*i]
		tables := body[2+2*i]
		if tables>>4 > 3 || tables&0x0f > 3 {
			return fmt.Errorf("jpegc: scan huffman table ids %#x out of range", tables)
		}
		found := false
		for j := range d.comps {
			if d.comps[j].id == cs {
				d.comps[j].dcTable = tables >> 4
				d.comps[j].acTable = tables & 0x0f
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("jpegc: scan references unknown component %d", cs)
		}
	}
	ss, se := body[1+2*nScan], body[2+2*nScan]
	if ss != 0 || se != 63 {
		return fmt.Errorf("jpegc: spectral selection %d..%d unsupported (baseline only)", ss, se)
	}

	// Copy quantization tables into the image components, rejecting
	// references to tables no DQT segment defined.
	for i := range d.comps {
		tbl := d.quant[d.comps[i].quantID]
		if err := tbl.Validate(); err != nil {
			return fmt.Errorf("jpegc: component %d references undefined or invalid quant table %d: %w",
				i, d.comps[i].quantID, err)
		}
		d.img.Comps[i].Quant = tbl
	}

	if err := d.decodeScan(); err != nil {
		return err
	}
	if err := d.finishSampling(); err != nil {
		return err
	}
	d.sawScan = true
	return nil
}

// chunkMinBlocks is the fewest blocks one chunk of a parallel scan decode
// or encode covers. Below it the per-chunk records, the sync run-past and
// the splice outweigh the gain, so a scan under two chunks' worth (a QVGA
// 4:2:0 image has 1,800 blocks) takes the serial walk.
const chunkMinBlocks = 4096

// scanChunks returns how many chunks a scan of the given block count is
// split into: one per worker, each at least chunkMinBlocks.
func scanChunks(blocks int) int {
	return max(1, min(parallel.Workers(), blocks/chunkMinBlocks))
}

// decodeScan buffers the scan's entropy-coded data and decodes it in
// chunks (DESIGN.md §11, "Parallel entropy coding"). A chunk whose start is
// known — the scan start or a restart segment, where the DC predictors
// reset — decodes straight into the grids (confirm). Restart-free data has
// one known start, so it is cut at byte positions and every later chunk
// decodes speculatively (speculate); syncChunks then confirms each chunk
// where the previous chunk's decode meets one of its block starts, and
// expand writes the confirmed blocks out. One chunk is the serial decode.
// The image is bit-identical at any chunk count.
func (d *decoder) decodeScan() error {
	for ci := range d.comps {
		if d.dcDec[d.comps[ci].dcTable] == nil || d.acDec[d.comps[ci].acTable] == nil {
			return fmt.Errorf("jpegc: scan uses undefined huffman table (component %d)", ci)
		}
	}
	buf, err := d.readEntropyData(byteBufPool.GetEmpty(byteBufCap))
	defer byteBufPool.Put(buf)
	if err != nil {
		return err
	}
	lay := d.layout()
	n := d.chunks
	if n <= 0 {
		n = scanChunks(lay.total)
	}
	chunks, err := d.planChunks(splitRestartSegments(buf), lay, n)
	if err != nil {
		return err
	}
	defer func() {
		for c := range chunks {
			chunks[c].release()
		}
	}()
	parallel.For(len(chunks), (len(chunks)+n-1)/n, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			ch := &chunks[c]
			if ch.cur.g >= 0 {
				_, ch.err = d.confirm(&ch.cur, lay, ch.gEnd, ch.end, nil)
			} else {
				d.speculate(ch, lay)
			}
		}
	})
	if d.restartInterval > 0 || len(chunks) == 1 {
		for c := range chunks {
			if chunks[c].err != nil {
				return chunks[c].err
			}
		}
		return nil
	}
	if err := d.syncChunks(chunks, lay); err != nil {
		return err
	}
	d.expand(chunks, lay)
	return nil
}

// maxMCUBlocks bounds the blocks of one MCU: three components sampled at
// up to 2x2.
const maxMCUBlocks = 12

// scanLayout maps the scan's block sequence onto the MCU-padded grids:
// global block g is slot g%bpm of MCU g/bpm.
type scanLayout struct {
	bpm, mcusX, total int
	slots             [maxMCUBlocks]scanSlot
}

// scanSlot is one block position of an MCU.
type scanSlot struct {
	ci, hs, vs, dx, dy int
	dc, ac             *decTable
}

func (d *decoder) layout() *scanLayout {
	c0 := &d.img.Comps[0]
	lay := &scanLayout{mcusX: c0.BlocksW / d.comps[0].hSamp}
	for ci := range d.comps {
		dc := &d.comps[ci]
		for v := 0; v < dc.vSamp; v++ {
			for h := 0; h < dc.hSamp; h++ {
				lay.slots[lay.bpm] = scanSlot{ci: ci, hs: dc.hSamp, vs: dc.vSamp, dx: h, dy: v,
					dc: d.dcDec[dc.dcTable], ac: d.acDec[dc.acTable]}
				lay.bpm++
			}
		}
	}
	lay.total = lay.mcusX * (c0.BlocksH / d.comps[0].vSamp) * lay.bpm
	return lay
}

// block returns global block g's grid position and storage.
func (d *decoder) block(lay *scanLayout, g int) (s *scanSlot, bx, by int, b *dct.Block) {
	mcu := g / lay.bpm
	s = &lay.slots[g%lay.bpm]
	bx, by = mcu%lay.mcusX*s.hs+s.dx, mcu/lay.mcusX*s.vs+s.dy
	c := &d.img.Comps[s.ci]
	return s, bx, by, &c.Blocks[by*c.BlocksW+bx]
}

// cursor is a decode whose place in the scan is known: its next block is
// global block g (g < 0 while a speculative chunk's place is unknown).
type cursor struct {
	br   bitReader
	base int64 // scan bit offset of br.data[0]
	g    int
	pred [4]int32
}

// noEnd is the bit offset of a chunk that runs to the end of its data.
const noEnd = math.MaxInt64

// blockRec is what a speculative chunk records for each block it decodes:
// the block's start (scan bit offset and the MCU slot it was decoded as),
// its DC difference (its DC value once confirmed), and where its AC
// coefficients sit in the chunk's coefficient list.
type blockRec struct {
	pos  int64
	dc   int32
	off  uint32
	slot uint8
	n    uint8
}

// scanChunk is one chunk of the scan decode.
type scanChunk struct {
	cur  cursor
	gEnd int   // a known chunk decodes blocks [cur.g, gEnd)
	end  int64 // scan bit offset where the next chunk starts
	err  error // a known chunk's error, or the error that stopped the speculation at its last record
	// Speculative output: the records, their AC coefficients (natural
	// index << 16 | uint16 value), and after syncChunks the confirmed
	// records [first, last), the first of them global block g0.
	recs            []blockRec
	coefs           []uint32
	first, last, g0 int
}

var (
	recPool  parallel.SlicePool[blockRec]
	coefPool parallel.SlicePool[uint32]
)

func (ch *scanChunk) release() {
	if ch.recs != nil {
		recPool.Put(ch.recs)
		coefPool.Put(ch.coefs)
	}
}

// planChunks cuts the scan into n chunks. A stream with restart intervals
// is cut at its segments, n runs of whole segments, each segment a known
// chunk. A restart-free stream is cut at n byte positions: the first chunk
// is known, the rest speculative.
func (d *decoder) planChunks(segs [][]byte, lay *scanLayout, n int) ([]scanChunk, error) {
	totalMCUs := lay.total / lay.bpm
	interval := d.restartInterval
	if interval > 0 {
		if want := (totalMCUs + interval - 1) / interval; len(segs) != want {
			return nil, fmt.Errorf("jpegc: scan has %d restart segments, want %d", len(segs), want)
		}
		chunks := make([]scanChunk, len(segs))
		for i, seg := range segs {
			chunks[i] = scanChunk{
				cur:  cursor{br: newBitReader(seg), g: i * interval * lay.bpm},
				gEnd: min((i+1)*interval, totalMCUs) * lay.bpm,
				end:  noEnd,
			}
		}
		return chunks, nil
	}
	if len(segs) != 1 {
		return nil, fmt.Errorf("jpegc: restart marker in scan without DRI")
	}
	data := segs[0]
	chunks := make([]scanChunk, n)
	start, stuffed := 0, 0
	for c := range chunks {
		ch := &chunks[c]
		ch.cur.base = 8 * int64(start-stuffed)
		ch.cur.br = newBitReader(data[start:])
		ch.gEnd, ch.end = lay.total, noEnd
		// The next chunk starts at the next cut, moved past a stuffing
		// byte so it never opens on the 0x00 of an 0xFF00 pair.
		next := max(start, (c+1)*len(data)/n)
		if next > 0 && next < len(data) && data[next-1] == 0xff {
			next++
		}
		if c > 0 {
			ch.cur.g = -1
			chunks[c-1].end = ch.cur.base
			// A block takes at least two bits (a DC code and an EOB), so
			// the data, not the declared size, bounds the records.
			est := min(lay.total/n, 4*(next-start)) + 64
			ch.recs, ch.coefs = recPool.GetEmpty(est), coefPool.GetEmpty(est)
		}
		stuffed += bytes.Count(data[start:next], []byte{0xff})
		start = next
	}
	return chunks, nil
}

// confirm decodes blocks from a cursor whose place is known into their
// grid positions, zeroing each first. It stops when block gEnd is reached,
// when the next block would start at or past end, or when the next block's
// start and slot match a record in recs (sorted by start), returning that
// record's index; otherwise it returns -1.
func (d *decoder) confirm(cur *cursor, lay *scanLayout, gEnd int, end int64, recs []blockRec) (int, error) {
	// The walk works on a local copy of the reader, which the compiler
	// keeps off the heap, and hands its state back on the way out.
	br := cur.br
	defer func() { cur.br = br }()
	k := 0
	slot, mcu := cur.g%lay.bpm, cur.g/lay.bpm
	mx, my := mcu%lay.mcusX, mcu/lay.mcusX
	watch := end != noEnd || len(recs) > 0 // the serial walk never stops early
	for ; cur.g < gEnd; cur.g++ {
		if watch {
			p := cur.base + br.bitPos()
			if p >= end {
				return -1, nil
			}
			for k < len(recs) && recs[k].pos < p {
				k++
			}
			if k < len(recs) && recs[k].pos == p && int(recs[k].slot) == slot {
				return k, nil
			}
		}
		s := &lay.slots[slot]
		c := &d.img.Comps[s.ci]
		bx, by := mx*s.hs+s.dx, my*s.vs+s.dy
		b := &c.Blocks[by*c.BlocksW+bx]
		if !d.zeroed {
			*b = dct.Block{}
		}
		diff, _, err := decodeBlock(&br, s.dc, s.ac, b)
		dc := cur.pred[s.ci] + diff
		if err == nil && !dcInRange(dc) {
			err = dcRangeError(dc)
		}
		if err != nil {
			return -1, fmt.Errorf("jpegc: block (%d,%d) component %d: %w", bx, by, s.ci, err)
		}
		cur.pred[s.ci], b[0] = dc, dc
		if slot++; slot == lay.bpm {
			slot = 0
			if mx++; mx == lay.mcusX {
				mx, my = 0, my+1
			}
		}
	}
	return -1, nil
}

// dcInRange reports whether an accumulated DC value is a baseline
// coefficient. A conforming stream keeps the accumulated DC inside the
// 11-bit range; a hostile diff sequence can walk the predictor anywhere,
// so the decode bounds it, or the image would decode to coefficients the
// encoder (correctly) refuses to represent.
func dcInRange(v int32) bool { return v >= dct.CoeffMin && v <= dct.CoeffMax }

func dcRangeError(v int32) error {
	return fmt.Errorf("jpegc: DC coefficient %d out of range [%d,%d]", v, dct.CoeffMin, dct.CoeffMax)
}

// speculate decodes a chunk whose place in the scan is unknown, guessing
// that its first byte starts an MCU's first (luma) block. It records every
// block that starts before the chunk's end, and stops at the first error
// (recorded as the last record) or once it holds more records than the
// scan has blocks, as no more of them can stand.
func (d *decoder) speculate(ch *scanChunk, lay *scanLayout) {
	var scratch dct.Block // AC positions stay zero between blocks
	br := ch.cur.br       // a local copy, as in confirm
	defer func() { ch.cur.br = br }()
	for slot := 0; len(ch.recs) <= lay.total; {
		p := ch.cur.base + br.bitPos()
		if p >= ch.end {
			return
		}
		s := &lay.slots[slot]
		diff, mask, err := decodeBlock(&br, s.dc, s.ac, &scratch)
		rec := blockRec{pos: p, dc: diff, off: uint32(len(ch.coefs)), slot: uint8(slot)}
		ch.recs = append(ch.recs, rec)
		if err != nil {
			ch.err = err
			return
		}
		for ; mask != 0; mask &= mask - 1 {
			i := dct.ZigZag[bits.TrailingZeros64(mask)]
			ch.coefs = append(ch.coefs, uint32(i)<<16|uint32(uint16(scratch[i])))
			scratch[i] = 0
		}
		ch.recs[len(ch.recs)-1].n = uint8(len(ch.coefs) - int(rec.off))
		if slot++; slot == lay.bpm {
			slot = 0
		}
	}
}

// syncChunks confirms the speculative chunks in scan order. The confirmed
// decode, starting from the first chunk's end, runs on past each chunk
// boundary until one of its block starts equals one the next chunk
// recorded (same bit offset, same MCU slot): from that record on, the
// chunk decoded exactly what the confirmed decode would have, so its
// records stand and the confirmed decode resumes from the chunk's end. A
// chunk it passes without a match it has decoded itself; it then tries the
// chunk after. Standing records get their DC values here, a serial
// per-component prefix sum over the differences with the range check the
// confirmed decode applies, so errors surface in scan order.
func (d *decoder) syncChunks(chunks []scanChunk, lay *scanLayout) error {
	if chunks[0].err != nil {
		return chunks[0].err
	}
	cur := chunks[0].cur
	for c := 1; c < len(chunks) && cur.g < lay.total; c++ {
		ch := &chunks[c]
		k, err := d.confirm(&cur, lay, lay.total, ch.end, ch.recs)
		if err != nil {
			return err
		}
		if k < 0 {
			continue
		}
		ch.first, ch.g0 = k, cur.g
		j := k
		for ; j < len(ch.recs) && cur.g < lay.total; j, cur.g = j+1, cur.g+1 {
			r := &ch.recs[j]
			ci := lay.slots[r.slot].ci
			dc := cur.pred[ci] + r.dc
			switch {
			case ch.err != nil && j == len(ch.recs)-1:
				err = ch.err
			case !dcInRange(dc):
				err = dcRangeError(dc)
			}
			if err != nil {
				s, bx, by, _ := d.block(lay, cur.g)
				return fmt.Errorf("jpegc: block (%d,%d) component %d: %w", bx, by, s.ci, err)
			}
			cur.pred[ci], r.dc = dc, dc
		}
		ch.last = j
		cur.br, cur.base = ch.cur.br, ch.cur.base
	}
	_, err := d.confirm(&cur, lay, lay.total, noEnd, nil)
	return err
}

// expandGrain is the number of confirmed records per task of expand.
const expandGrain = 1024

// expand writes every chunk's confirmed records into their grid blocks,
// zeroing each block first unless the grids came zeroed, in parallel.
func (d *decoder) expand(chunks []scanChunk, lay *scanLayout) {
	type span struct{ c, lo, hi int }
	var spans []span
	for c := range chunks {
		for lo := chunks[c].first; lo < chunks[c].last; lo += expandGrain {
			spans = append(spans, span{c, lo, min(lo+expandGrain, chunks[c].last)})
		}
	}
	parallel.For(len(spans), 1, func(lo, hi int) {
		for _, sp := range spans[lo:hi] {
			ch := &chunks[sp.c]
			for j := sp.lo; j < sp.hi; j++ {
				r := &ch.recs[j]
				_, _, _, b := d.block(lay, ch.g0+j-ch.first)
				if !d.zeroed {
					*b = dct.Block{}
				}
				b[0] = r.dc
				for _, v := range ch.coefs[r.off : r.off+uint32(r.n)] {
					b[v>>16&(dct.BlockLen-1)] = int32(int16(v))
				}
			}
		}
	})
}

// readEntropyData appends the scan's entropy-coded bytes (stuffing and
// restart markers included) to buf until a non-restart marker or EOF, and
// returns the extended buffer. A terminating marker is stashed in d.pending
// for the outer marker loop.
func (d *decoder) readEntropyData(buf []byte) ([]byte, error) {
	for {
		chunk, err := d.r.ReadSlice(0xff)
		// chunk aliases the bufio internal buffer and is invalidated by the
		// next read, so it must be copied into buf before touching d.r again.
		buf = append(buf, chunk...)
		if err == bufio.ErrBufferFull {
			continue
		}
		if err != nil {
			// EOF with no 0xFF: keep what we have; the bit readers will
			// report precise truncation errors if MCUs are missing.
			if err == io.EOF {
				return buf, nil
			}
			return buf, fmt.Errorf("jpegc: read entropy data: %w", err)
		}
		next, err := d.r.ReadByte()
		if err != nil {
			return buf, nil // dangling 0xFF at EOF
		}
		switch {
		case next == 0x00:
			buf = append(buf, 0x00) // stuffed data byte, keep 0xFF00
		case next >= markerRST0 && next <= markerRST7:
			buf = append(buf, next) // segment boundary, keep the marker
		case next == 0xff:
			// Fill byte; drop it and rescan from the second 0xFF.
			buf = buf[:len(buf)-1]
			if err := d.r.UnreadByte(); err != nil {
				return buf, err
			}
		default:
			buf = buf[:len(buf)-1]
			d.pending = next
			return buf, nil
		}
	}
}

// splitRestartSegments splits buffered entropy data at RSTn markers,
// returning per-segment sub-slices with the markers stripped. Stuffed
// 0xFF00 pairs stay inside their segment for the bit readers to unstuff.
func splitRestartSegments(data []byte) [][]byte {
	segs := make([][]byte, 0, 1)
	start, p := 0, 0
	for {
		i := bytes.IndexByte(data[p:], 0xff)
		if i < 0 || p+i+1 >= len(data) {
			break
		}
		p += i
		if next := data[p+1]; next >= markerRST0 && next <= markerRST7 {
			segs = append(segs, data[start:p])
			p += 2
			start = p
		} else {
			p += 2 // stuffed byte (or stray marker the bit reader will reject)
		}
	}
	return append(segs, data[start:])
}

// decodeBlock entropy-decodes one block: it writes the AC coefficients
// into *b, whose AC positions must be zero, and returns the DC difference
// and the zigzag mask of the AC positions it wrote. b[0] is left alone.
func decodeBlock(br *bitReader, dcT, acT *decTable, b *dct.Block) (diff int32, mask uint64, err error) {
	cat, err := dcT.decode(br)
	if err != nil {
		return 0, 0, err
	}
	if cat > 11 {
		return 0, 0, fmt.Errorf("jpegc: DC category %d out of range", cat)
	}
	bits, err := br.ReadBits(int(cat))
	if err != nil {
		return 0, 0, err
	}
	diff = extendMagnitude(bits, int(cat))

	zz := 1
	for zz < dct.BlockLen {
		sym, err := acT.decode(br)
		if err != nil {
			return 0, 0, err
		}
		run := int(sym >> 4)
		size := int(sym & 0x0f)
		switch {
		case size == 0 && run == 0: // EOB
			return diff, mask, nil
		case size == 0 && run == 15: // ZRL
			zz += 16
		case size == 0:
			return 0, 0, fmt.Errorf("jpegc: invalid AC symbol %#x", sym)
		case size > 10:
			// Baseline AC categories stop at 10; larger sizes would decode
			// to coefficients outside [-1023, 1023].
			return 0, 0, fmt.Errorf("jpegc: AC category %d out of range", size)
		default:
			zz += run
			if zz >= dct.BlockLen {
				return 0, 0, fmt.Errorf("jpegc: AC run overflows block")
			}
			bits, err := br.ReadBits(size)
			if err != nil {
				return 0, 0, err
			}
			b[dct.ZigZag[zz]] = extendMagnitude(bits, size)
			mask |= 1 << (uint(zz) & 63) // zz < 64 here; the mask skips the shift checks
			zz++
		}
	}
	return diff, mask, nil
}
