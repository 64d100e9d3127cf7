package jpegc

import (
	"fmt"
	"io"
	"math/bits"
	"sync/atomic"

	"puppies/internal/dct"
	"puppies/internal/parallel"
)

// TableMode selects how Huffman tables are chosen at encode time.
type TableMode int

const (
	// TablesDefault uses the Annex K typical tables (libjpeg default).
	TablesDefault TableMode = iota + 1
	// TablesOptimized derives per-image tables from the actual symbol
	// distribution in a first statistics pass (libjpeg optimize_coding).
	// PuPPIeS-C depends on this mode.
	TablesOptimized
)

// EncodeOptions control bit-stream generation.
type EncodeOptions struct {
	// Tables selects default or optimized Huffman tables. Zero value means
	// TablesDefault.
	Tables TableMode
	// RestartInterval, when positive, emits a DRI segment and RSTn markers
	// every that many MCUs, allowing decoders to resynchronize after
	// corruption. Zero disables restart markers (the default).
	RestartInterval int
}

func (o EncodeOptions) tables() TableMode {
	if o.Tables == 0 {
		return TablesDefault
	}
	return o.Tables
}

// tableSet is the four Huffman specs used in one scan. For grayscale only
// the first two are used.
type tableSet struct {
	dcLum, acLum, dcChrom, acChrom HuffmanSpec
}

// Encode writes the coefficient image as a baseline JFIF stream: grayscale
// for 1 component, YUV at the components' native sampling for 3 components
// (4:4:4 when all components sample 1x1, MCU-interleaved 4:2:0/4:2:2/4:4:0
// otherwise). Blocks in the MCU padding margin of subsampled layouts are
// filled by edge-block replication, which round-trips: the decoder writes
// them into the padded grid and trims them away.
func (m *Image) Encode(w io.Writer, opts EncodeOptions) error {
	return m.encode(w, opts, 0)
}

// encode is Encode with the scan split into the given number of chunks;
// chunks <= 0 derives the count from the block count (scanChunks). Any
// count writes the same bytes.
func (m *Image) encode(w io.Writer, opts EncodeOptions, chunks int) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if opts.RestartInterval < 0 || opts.RestartInterval > 0xffff {
		return fmt.Errorf("jpegc: restart interval %d out of range [0, 65535]", opts.RestartInterval)
	}
	slab := maskSlabPool.Get(m.blockCount())
	defer maskSlabPool.Put(slab)
	masks, err := m.nonzeroMasks(slab)
	if err != nil {
		return err
	}

	var tables tableSet
	switch opts.tables() {
	case TablesDefault:
		tables = tableSet{
			dcLum: StdDCLuminance, acLum: StdACLuminance,
			dcChrom: StdDCChrominance, acChrom: StdACChrominance,
		}
	case TablesOptimized:
		tables, err = m.gatherOptimalTables(&masks, opts.RestartInterval)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("jpegc: unknown table mode %d", opts.Tables)
	}

	if err := writeMarkers(w, m, &tables, opts.RestartInterval); err != nil {
		return err
	}
	if err := m.writeScan(w, &tables, &masks, opts.RestartInterval, chunks); err != nil {
		return err
	}
	_, err = w.Write([]byte{0xff, markerEOI})
	return err
}

// EncodedSize returns the byte length of the encoded stream without
// retaining it.
func (m *Image) EncodedSize(opts EncodeOptions) (int64, error) {
	var cw countingWriter
	if err := m.Encode(&cw, opts); err != nil {
		return 0, err
	}
	return cw.n, nil
}

// blockMasks holds, per component, each stored block's zigzag nonzero-AC
// mask: bit zz is set when the AC coefficient at zigzag position zz
// (1..63) is nonzero. Bit 0 is never set.
type blockMasks [3][]uint64

// maskGrain is the number of blocks per chunk of the parallel mask pass.
const maskGrain = 1024

// blockCount returns the number of stored blocks across components.
func (m *Image) blockCount() int {
	n := 0
	for ci := range m.Comps {
		n += len(m.Comps[ci].Blocks)
	}
	return n
}

// nonzeroMasks range-checks every stored block and records its nonzero-AC
// mask into slab (blockCount entries), in one parallel pass over the
// blocks of all components. The symbol-statistics and emit walks then
// visit only the set bits. On an out-of-range coefficient it returns
// validateCoefficientRanges' error.
func (m *Image) nonzeroMasks(slab []uint64) (blockMasks, error) {
	var masks blockMasks
	n := 0
	for ci := range m.Comps {
		masks[ci] = slab[n : n+len(m.Comps[ci].Blocks)]
		n += len(m.Comps[ci].Blocks)
	}
	var bad atomic.Bool
	parallel.For(n, maskGrain, func(lo, hi int) {
		// Map the chunk [lo, hi) of the concatenated block index onto
		// each component's blocks.
		base := 0
		for ci := range m.Comps {
			blocks := m.Comps[ci].Blocks
			a, z := max(lo-base, 0), min(hi-base, len(blocks))
			if a < z && !maskBlocks(blocks[a:z], masks[ci][a:z]) {
				bad.Store(true)
			}
			base += len(blocks)
		}
	})
	if bad.Load() {
		return masks, m.validateCoefficientRanges()
	}
	return masks, nil
}

// maskBlocks writes each block's nonzero-AC mask into dst and reports
// whether every coefficient is in range. Natural blocks are mostly zero
// ACs, and most of their high-frequency rows are all zero: each
// natural-order row of 8 coefficients is tested with one OR and skipped
// when zero, the one branch per row. Row 0 is tested without the DC, so a
// flat block skips all eight. A nonzero row's 8-bit natural mask is built
// without branches from the coefficients' magnitudes and mapped to zigzag
// bits through zzRowBits. The range check ORs together every AC magnitude
// and half of each DC's offset from CoeffMin: bits 10 and up stay clear
// exactly when every AC is in [ACMin, CoeffMax] and every DC in
// [CoeffMin, CoeffMax] (int32 wraparound lands far outside), and they are
// tested once at the end.
func maskBlocks(blocks []dct.Block, dst []uint64) bool {
	var out uint32
	for bi := range blocks {
		b := &blocks[bi]
		out |= uint32(b[0]-dct.CoeffMin) >> 1
		var mask uint64
		keep0 := int32(0) // drops the DC from row 0
		for r := 0; r < dct.BlockSize; r++ {
			row := (*[dct.BlockSize]int32)(b[r*dct.BlockSize:])
			v0, v1, v2, v3, v4, v5, v6, v7 := row[0]&keep0, row[1], row[2], row[3], row[4], row[5], row[6], row[7]
			keep0 = -1
			if v0|v1|v2|v3|v4|v5|v6|v7 == 0 {
				continue
			}
			a0, a1, a2, a3, a4, a5, a6, a7 := abs32(v0), abs32(v1), abs32(v2), abs32(v3), abs32(v4), abs32(v5), abs32(v6), abs32(v7)
			// -a has its top bit set exactly when a != 0.
			nz := (-a0)>>31 | (-a1)>>31<<1 | (-a2)>>31<<2 | (-a3)>>31<<3 | (-a4)>>31<<4 | (-a5)>>31<<5 | (-a6)>>31<<6 | (-a7)>>31<<7
			mask |= zzRowBits[r][nz]
			out |= a0 | a1 | a2 | a3 | a4 | a5 | a6 | a7
		}
		dst[bi] = mask
	}
	return out>>10 == 0
}

// zzRowBits[r][m] is the zigzag mask of the positions in natural-order row
// r whose columns are set in the 8-bit mask m.
var zzRowBits [dct.BlockSize][1 << dct.BlockSize]uint64

func init() {
	for r := range zzRowBits {
		for m := range zzRowBits[r] {
			for c := 0; c < dct.BlockSize; c++ {
				if m>>c&1 != 0 {
					zzRowBits[r][m] |= 1 << dct.UnZigZag[r*dct.BlockSize+c]
				}
			}
		}
	}
}

// validateCoefficientRanges reports the first out-of-range coefficient in
// component and block order. Encode calls it only once nonzeroMasks has
// found one.
func (m *Image) validateCoefficientRanges() error {
	for ci := range m.Comps {
		for bi := range m.Comps[ci].Blocks {
			b := &m.Comps[ci].Blocks[bi]
			if b[0] < dct.CoeffMin || b[0] > dct.CoeffMax {
				return fmt.Errorf("jpegc: component %d block %d DC %d out of range [%d,%d]",
					ci, bi, b[0], dct.CoeffMin, dct.CoeffMax)
			}
			for i := 1; i < dct.BlockLen; i++ {
				if b[i] < dct.ACMin || b[i] > dct.CoeffMax {
					return fmt.Errorf("jpegc: component %d block %d AC[%d] %d out of range [%d,%d]",
						ci, bi, i, b[i], dct.ACMin, dct.CoeffMax)
				}
			}
		}
	}
	return nil
}

// Marker codes (second byte after 0xFF).
const (
	markerSOI  = 0xd8
	markerEOI  = 0xd9
	markerSOF0 = 0xc0
	markerDHT  = 0xc4
	markerDQT  = 0xdb
	markerSOS  = 0xda
	markerAPP0 = 0xe0
	markerDRI  = 0xdd
	markerCOM  = 0xfe
	markerRST0 = 0xd0
	markerRST7 = 0xd7
)

func writeSegment(w io.Writer, marker byte, payload []byte) error {
	if len(payload)+2 > 0xffff {
		return fmt.Errorf("jpegc: segment %#x payload too long (%d)", marker, len(payload))
	}
	hdr := []byte{0xff, marker, byte((len(payload) + 2) >> 8), byte(len(payload) + 2)}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func writeMarkers(w io.Writer, m *Image, tables *tableSet, restartInterval int) error {
	if _, err := w.Write([]byte{0xff, markerSOI}); err != nil {
		return err
	}
	// APP0 JFIF header, version 1.1, no density information.
	app0 := []byte{'J', 'F', 'I', 'F', 0, 1, 1, 0, 0, 1, 0, 1, 0, 0}
	if err := writeSegment(w, markerAPP0, app0); err != nil {
		return err
	}

	// DQT: table 0 = luminance; table 1 = chrominance (color only).
	nQuant := 1
	if len(m.Comps) == 3 {
		nQuant = 2
	}
	dqt := make([]byte, 0, nQuant*65)
	for q := 0; q < nQuant; q++ {
		dqt = append(dqt, byte(q)) // 8-bit precision, table id q
		src := &m.Comps[0].Quant
		if q == 1 {
			src = &m.Comps[1].Quant
		}
		for zz := 0; zz < dct.BlockLen; zz++ {
			v := src[dct.ZigZag[zz]]
			if v > 255 {
				return fmt.Errorf("jpegc: quant step %d too large for 8-bit DQT", v)
			}
			dqt = append(dqt, byte(v))
		}
	}
	if err := writeSegment(w, markerDQT, dqt); err != nil {
		return err
	}

	// SOF0: baseline, 8-bit precision, per-component sampling factors.
	sof := []byte{8, byte(m.H >> 8), byte(m.H), byte(m.W >> 8), byte(m.W), byte(len(m.Comps))}
	for ci := range m.Comps {
		qid := byte(0)
		if ci > 0 {
			qid = 1
		}
		hs, vs := m.Comps[ci].Sampling()
		sof = append(sof, byte(ci+1), byte(hs<<4|vs), qid)
	}
	if err := writeSegment(w, markerSOF0, sof); err != nil {
		return err
	}

	// DHT: class 0 = DC, class 1 = AC; id 0 = luminance, id 1 = chrominance.
	dht := make([]byte, 0, 1024)
	appendSpec := func(class, id byte, s *HuffmanSpec) {
		dht = append(dht, class<<4|id)
		dht = append(dht, s.Counts[:]...)
		dht = append(dht, s.Values...)
	}
	appendSpec(0, 0, &tables.dcLum)
	appendSpec(1, 0, &tables.acLum)
	if len(m.Comps) == 3 {
		appendSpec(0, 1, &tables.dcChrom)
		appendSpec(1, 1, &tables.acChrom)
	}
	if err := writeSegment(w, markerDHT, dht); err != nil {
		return err
	}

	// DRI (only when restart markers are requested).
	if restartInterval > 0 {
		dri := []byte{byte(restartInterval >> 8), byte(restartInterval)}
		if err := writeSegment(w, markerDRI, dri); err != nil {
			return err
		}
	}

	// SOS.
	sos := []byte{byte(len(m.Comps))}
	for ci := range m.Comps {
		tid := byte(0x00)
		if ci > 0 {
			tid = 0x11
		}
		sos = append(sos, byte(ci+1), tid)
	}
	sos = append(sos, 0, 63, 0) // spectral selection 0..63, successive approx 0
	return writeSegment(w, markerSOS, sos)
}

// encodeBlock entropy-codes one block given its DC predictor and its
// nonzero-AC mask, returning the new predictor value. Each Huffman code is
// packed together with its magnitude bits into a single WriteBits call (at
// most 16+11 = 27 bits). The AC walk visits only the mask's set bits; the
// zero run before each is the gap between consecutive set bits. countBlock
// must emit the identical symbol stream — the two walks are deliberately
// parallel; TestEncodeMatchesReferenceWalk holds both to the scalar walk.
func encodeBlock(bw *bitBuf, b *dct.Block, mask uint64, pred int32, dcT, acT *encTable) (int32, error) {
	diff := b[0] - pred
	cat := magnitudeCategory(diff)
	if dcT.size[cat] == 0 {
		return 0, fmt.Errorf("jpegc: DC symbol %#x has no huffman code", cat)
	}
	bw.WriteBits(dcT.code[cat]<<cat|magnitudeBits(diff, cat), uint(dcT.size[cat])+uint(cat))

	last := 0
	for ; mask != 0; mask &= mask - 1 {
		zz := bits.TrailingZeros64(mask)
		run := zz - last - 1
		for ; run > 15; run -= 16 {
			if acT.size[0xf0] == 0 {
				return 0, fmt.Errorf("jpegc: AC symbol %#x has no huffman code", 0xf0)
			}
			bw.WriteBits(acT.code[0xf0], uint(acT.size[0xf0])) // ZRL
		}
		v := b[dct.ZigZag[zz]]
		size := magnitudeCategory(v)
		sym := byte(run<<4 | size)
		if acT.size[sym] == 0 {
			return 0, fmt.Errorf("jpegc: AC symbol %#x has no huffman code", sym)
		}
		bw.WriteBits(acT.code[sym]<<size|magnitudeBits(v, size), uint(acT.size[sym])+uint(size))
		last = zz
	}
	if last < dct.BlockLen-1 {
		if acT.size[0x00] == 0 {
			return 0, fmt.Errorf("jpegc: AC symbol %#x has no huffman code", 0x00)
		}
		bw.WriteBits(acT.code[0x00], uint(acT.size[0x00])) // EOB
	}
	return b[0], nil
}

// countBlock walks one block exactly like encodeBlock but accumulates
// symbol frequencies instead of emitting bits (the statistics pass of the
// optimized-tables mode), returning the new DC predictor.
func countBlock(b *dct.Block, mask uint64, pred int32, dc, ac *[256]int64) int32 {
	dc[magnitudeCategory(b[0]-pred)]++

	last := 0
	for ; mask != 0; mask &= mask - 1 {
		zz := bits.TrailingZeros64(mask)
		run := zz - last - 1
		for ; run > 15; run -= 16 {
			ac[0xf0]++ // ZRL
		}
		ac[byte(run<<4|magnitudeCategory(b[dct.ZigZag[zz]]))]++
		last = zz
	}
	if last < dct.BlockLen-1 {
		ac[0x00]++ // EOB
	}
	return b[0]
}

// histGrain is the number of MCUs per chunk in the parallel statistics
// pass; at ~64 symbols per MCU a chunk is enough work to amortize the
// per-chunk histogram.
const histGrain = 256

// mcuGrid returns the scan's MCU counts: for 4:4:4 an MCU is one block per
// component, for subsampled layouts it spans 8*maxH x 8*maxV pixels.
func (m *Image) mcuGrid() (mcusX, mcusY int) {
	maxH, maxV := m.MaxSampling()
	mcusX = (m.W + dct.BlockSize*maxH - 1) / (dct.BlockSize * maxH)
	mcusY = (m.H + dct.BlockSize*maxV - 1) / (dct.BlockSize * maxV)
	return mcusX, mcusY
}

// clampedIndex returns the index in Blocks of the block at (bx, by),
// replicating the nearest edge block for coordinates in the MCU padding
// margin outside the nominal grid (the scan walks whole MCUs, the grid
// stores only nominal blocks).
func (c *Component) clampedIndex(bx, by int) int {
	return min(by, c.BlocksH-1)*c.BlocksW + min(bx, c.BlocksW-1)
}

// dcPredictors returns the DC predictors a walk starting at MCU mcu
// begins with: the stored DC of the last block each component emits in MCU
// mcu-1, or zero at the scan start. A block's predictor is the previous
// block's coefficient, not encoder state, so the scan can be cut into MCU
// chunks that are walked independently; walks still reset the predictors
// at restart boundaries themselves.
func (m *Image) dcPredictors(mcu, mcusX int) (pred [4]int32) {
	if mcu == 0 {
		return pred
	}
	pmx, pmy := (mcu-1)%mcusX, (mcu-1)/mcusX
	for ci := range m.Comps {
		c := &m.Comps[ci]
		hs, vs := c.Sampling()
		pred[ci] = c.Blocks[c.clampedIndex(pmx*hs+hs-1, pmy*vs+vs-1)][0]
	}
	return pred
}

func (m *Image) gatherOptimalTables(masks *blockMasks, restartInterval int) (tableSet, error) {
	// The statistics pass is embarrassingly parallel: each chunk seeds its
	// predictors with dcPredictors. Histograms are integer counts, so merging per-chunk
	// partials is exact and order-independent. The per-chunk histograms
	// (8 KiB each) come from a pool and go back after the merge. The walk
	// must count the identical symbol stream writeScan emits, replicated
	// MCU-padding blocks and restart resets included.
	mcusX, mcusY := m.mcuGrid()
	nMCU := mcusX * mcusY
	parts := parallel.Map(nMCU, histGrain, func(lo, hi int) *symbolHist {
		h := getHist()
		pred := m.dcPredictors(lo, mcusX)
		for mcu := lo; mcu < hi; mcu++ {
			if restartInterval > 0 && mcu%restartInterval == 0 {
				pred = [4]int32{}
			}
			mx, my := mcu%mcusX, mcu/mcusX
			for ci := range m.Comps {
				ti := 0
				if ci > 0 {
					ti = 1
				}
				c := &m.Comps[ci]
				hs, vs := c.Sampling()
				for v := 0; v < vs; v++ {
					for hh := 0; hh < hs; hh++ {
						i := c.clampedIndex(mx*hs+hh, my*vs+v)
						pred[ci] = countBlock(&c.Blocks[i], masks[ci][i], pred[ci], &h.dc[ti], &h.ac[ti])
					}
				}
			}
		}
		return h
	})
	var dcFreq, acFreq [2][256]int64
	for _, h := range parts {
		for ti := 0; ti < 2; ti++ {
			for s := 0; s < 256; s++ {
				dcFreq[ti][s] += h.dc[ti][s]
				acFreq[ti][s] += h.ac[ti][s]
			}
		}
		putHist(h)
	}

	var ts tableSet
	var err error
	if ts.dcLum, err = BuildOptimalSpec(&dcFreq[0]); err != nil {
		return ts, fmt.Errorf("jpegc: optimal DC luminance table: %w", err)
	}
	if ts.acLum, err = BuildOptimalSpec(&acFreq[0]); err != nil {
		return ts, fmt.Errorf("jpegc: optimal AC luminance table: %w", err)
	}
	if len(m.Comps) == 3 {
		if ts.dcChrom, err = BuildOptimalSpec(&dcFreq[1]); err != nil {
			return ts, fmt.Errorf("jpegc: optimal DC chrominance table: %w", err)
		}
		if ts.acChrom, err = BuildOptimalSpec(&acFreq[1]); err != nil {
			return ts, fmt.Errorf("jpegc: optimal AC chrominance table: %w", err)
		}
	}
	return ts, nil
}

// scanPart is one chunk of a scan's emit: an MCU range and, once emitted,
// its unstuffed bit string and the byte offsets in it of its restart
// markers.
type scanPart struct {
	lo, hi int
	bits   bitBuf
	nbits  int
	marks  []int
	err    error
}

// writeScan entropy-codes the scan in chunks of MCUs, each emitted in
// parallel into its own unstuffed bit string (emitScan), and splices the
// strings into one stuffed segment (spliceScan). The bytes are those of a
// single serial walk at any chunk count.
func (m *Image) writeScan(w io.Writer, tables *tableSet, masks *blockMasks, restartInterval, chunks int) error {
	parts, err := m.emitScan(tables, masks, restartInterval, chunks)
	defer func() {
		for c := range parts {
			byteBufPool.Put(parts[c].bits.buf)
		}
	}()
	if err != nil {
		return err
	}
	return spliceScan(w, parts)
}

// emitScan cuts the scan's MCUs into chunks (chunks <= 0 derives the count
// from the block count) and emits each chunk in parallel. With restart
// intervals, chunks start on restart boundaries, which are byte-aligned in
// the stream, so each chunk pads its own segments. The caller recycles
// the parts' buffers.
func (m *Image) emitScan(tables *tableSet, masks *blockMasks, restartInterval, chunks int) ([]scanPart, error) {
	var enc [2][2]*encTable // [table index][DC, AC]
	specs := [2][2]*HuffmanSpec{{&tables.dcLum, &tables.acLum}, {&tables.dcChrom, &tables.acChrom}}
	for ti := 0; ti < min(len(m.Comps), 2); ti++ {
		for k := range enc[ti] {
			t, err := newEncTable(specs[ti][k])
			if err != nil {
				return nil, err
			}
			enc[ti][k] = t
		}
	}

	mcusX, mcusY := m.mcuGrid()
	nMCU := mcusX * mcusY
	if chunks <= 0 {
		chunks = scanChunks(nMCU * m.mcuBlocks())
	}
	parts := make([]scanPart, chunks)
	for c := range parts {
		lo, hi := c*nMCU/chunks, (c+1)*nMCU/chunks
		if restartInterval > 0 {
			lo, hi = lo/restartInterval*restartInterval, hi/restartInterval*restartInterval
			if c == chunks-1 {
				hi = nMCU
			}
		}
		parts[c] = scanPart{lo: lo, hi: hi, bits: bitBuf{buf: byteBufPool.GetEmpty(byteBufCap)}}
	}
	parallel.For(chunks, 1, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			m.emitPart(&parts[c], &enc, masks, mcusX, restartInterval)
		}
	})
	for c := range parts {
		if parts[c].err != nil {
			return parts, parts[c].err
		}
	}
	return parts, nil
}

// mcuBlocks returns the number of blocks one MCU carries.
func (m *Image) mcuBlocks() int {
	n := 0
	for ci := range m.Comps {
		hs, vs := m.Comps[ci].Sampling()
		n += hs * vs
	}
	return n
}

// emitPart entropy-codes MCUs [p.lo, p.hi) into p's bit string.
func (m *Image) emitPart(p *scanPart, enc *[2][2]*encTable, masks *blockMasks, mcusX, restartInterval int) {
	pred := m.dcPredictors(p.lo, mcusX)
	bw := &p.bits
	for mcu := p.lo; mcu < p.hi; mcu++ {
		if restartInterval > 0 && mcu > 0 && mcu%restartInterval == 0 {
			bw.alignOnes() // the segment ends; RSTn goes here
			p.marks = append(p.marks, len(bw.buf))
			pred = [4]int32{}
		}
		// An MCU carries hs x vs blocks per component (one block each in
		// the 4:4:4 layout); padding positions replicate the edge block.
		mx, my := mcu%mcusX, mcu/mcusX
		for ci := range m.Comps {
			t := enc[min(ci, 1)]
			c := &m.Comps[ci]
			hs, vs := c.Sampling()
			for v := 0; v < vs; v++ {
				for h := 0; h < hs; h++ {
					i := c.clampedIndex(mx*hs+h, my*vs+v)
					next, err := encodeBlock(bw, &c.Blocks[i], masks[ci][i], pred[ci], t[0], t[1])
					if err != nil {
						p.err = err
						return
					}
					pred[ci] = next
				}
			}
		}
	}
	if restartInterval > 0 {
		bw.alignOnes() // the next chunk starts a segment
	}
	p.nbits = bw.finish()
}

// spliceScan writes the parts' bit strings to w as one entropy-coded
// segment: each string shifted into place behind the previous one, every
// 0xFF data byte stuffed, an RSTn marker at each restart mark, and the last
// byte padded with 1-bits.
func spliceScan(w io.Writer, parts []scanPart) error {
	n := 0
	for c := range parts {
		n += len(parts[c].bits.buf)
	}
	s := splicer{out: byteBufPool.GetEmpty(n + n/64 + 16)}
	rst := 0
	for c := range parts {
		p := &parts[c]
		src, done := p.bits.buf, 0
		for _, mark := range p.marks {
			s.appendBits(src[done:mark], 8*(mark-done))
			s.restart(rst)
			rst++
			done = mark
		}
		s.appendBits(src[done:], p.nbits-8*done)
	}
	s.padToByte()
	_, err := w.Write(s.out)
	byteBufPool.Put(s.out)
	return err
}
