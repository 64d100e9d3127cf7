package jpegc

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
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
	br := decReaderPool.Get().(*bufio.Reader)
	br.Reset(r)
	d := &decoder{r: br}
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
	// scan.
	mcusX := (w + 8*d.maxH - 1) / (8 * d.maxH)
	mcusY := (h + 8*d.maxV - 1) / (8 * d.maxV)
	d.img = &Image{W: w, H: h, Comps: make([]Component, nComp)}
	for i := range d.img.Comps {
		bw := mcusX * d.comps[i].hSamp
		bh := mcusY * d.comps[i].vSamp
		d.img.Comps[i] = Component{
			BlocksW: bw,
			BlocksH: bh,
			Blocks:  blockSlabPool.Get(bw * bh),
		}
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

// segGrainMCUs sizes the parallel chunks of the restart-segment decode: a
// chunk always covers at least this many MCUs' worth of segments, so tiny
// restart intervals do not drown the pool in single-MCU tasks.
const segGrainMCUs = 64

// decodeScan buffers the scan's entropy-coded data, splits it at restart
// markers, and decodes the segments — concurrently when the stream has
// restart intervals and more than one segment. Each segment starts with
// fresh DC predictors and writes a disjoint MCU range, so parallel and
// serial decodes are bit-identical (TestRestartParallelDecodeDeterministic).
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
	segs := splitRestartSegments(buf)

	mcusX := d.img.Comps[0].BlocksW / d.comps[0].hSamp
	mcusY := d.img.Comps[0].BlocksH / d.comps[0].vSamp
	totalMCUs := mcusX * mcusY
	interval := d.restartInterval
	if interval <= 0 {
		if len(segs) != 1 {
			return fmt.Errorf("jpegc: restart marker in scan without DRI")
		}
		return d.decodeSegment(segs[0], 0, totalMCUs, mcusX)
	}
	if want := (totalMCUs + interval - 1) / interval; len(segs) != want {
		return fmt.Errorf("jpegc: scan has %d restart segments, want %d", len(segs), want)
	}
	// Batch whole segments so each chunk decodes >= segGrainMCUs MCUs.
	grain := 1
	if interval < segGrainMCUs {
		grain = (segGrainMCUs + interval - 1) / interval
	}
	errs := make([]error, len(segs))
	parallel.For(len(segs), grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			mcuLo := i * interval
			mcuHi := mcuLo + interval
			if mcuHi > totalMCUs {
				mcuHi = totalMCUs
			}
			errs[i] = d.decodeSegment(segs[i], mcuLo, mcuHi, mcusX)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
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

// decodeSegment entropy-decodes MCUs [mcuLo, mcuHi) from one restart
// segment, starting from zeroed DC predictors.
func (d *decoder) decodeSegment(data []byte, mcuLo, mcuHi, mcusX int) error {
	br := newBitReader(data)
	var pred [4]int32
	for mcu := mcuLo; mcu < mcuHi; mcu++ {
		mx, my := mcu%mcusX, mcu/mcusX
		for ci := range d.comps {
			dcT := d.dcDec[d.comps[ci].dcTable]
			acT := d.acDec[d.comps[ci].acTable]
			for v := 0; v < d.comps[ci].vSamp; v++ {
				for hh := 0; hh < d.comps[ci].hSamp; hh++ {
					bx := mx*d.comps[ci].hSamp + hh
					by := my*d.comps[ci].vSamp + v
					if err := decodeBlock(&br, dcT, acT, &pred[ci], d.img.Comps[ci].Block(bx, by)); err != nil {
						return fmt.Errorf("jpegc: block (%d,%d) component %d: %w", bx, by, ci, err)
					}
				}
			}
		}
	}
	return nil
}

// decodeBlock entropy-decodes one block into *b, which must be zeroed
// (freshly allocated component storage is).
func decodeBlock(br *bitReader, dcT, acT *decTable, pred *int32, b *dct.Block) error {
	cat, err := dcT.decode(br)
	if err != nil {
		return err
	}
	if cat > 11 {
		return fmt.Errorf("jpegc: DC category %d out of range", cat)
	}
	bits, err := br.ReadBits(int(cat))
	if err != nil {
		return err
	}
	diff := extendMagnitude(bits, int(cat))
	*pred += diff
	// A conforming baseline stream keeps the accumulated DC inside the
	// 11-bit coefficient range; a hostile diff sequence can walk the
	// predictor anywhere, so bound it here or the image would decode to
	// coefficients the encoder (correctly) refuses to represent.
	if *pred < dct.CoeffMin || *pred > dct.CoeffMax {
		return fmt.Errorf("jpegc: DC coefficient %d out of range [%d,%d]", *pred, dct.CoeffMin, dct.CoeffMax)
	}
	b[0] = *pred

	zz := 1
	for zz < dct.BlockLen {
		sym, err := acT.decode(br)
		if err != nil {
			return err
		}
		run := int(sym >> 4)
		size := int(sym & 0x0f)
		switch {
		case size == 0 && run == 0: // EOB
			return nil
		case size == 0 && run == 15: // ZRL
			zz += 16
		case size == 0:
			return fmt.Errorf("jpegc: invalid AC symbol %#x", sym)
		case size > 10:
			// Baseline AC categories stop at 10; larger sizes would decode
			// to coefficients outside [-1023, 1023].
			return fmt.Errorf("jpegc: AC category %d out of range", size)
		default:
			zz += run
			if zz >= dct.BlockLen {
				return fmt.Errorf("jpegc: AC run overflows block")
			}
			bits, err := br.ReadBits(size)
			if err != nil {
				return err
			}
			b[dct.ZigZag[zz]] = extendMagnitude(bits, size)
			zz++
		}
	}
	return nil
}
