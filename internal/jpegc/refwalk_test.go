package jpegc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"image"
	"math"
	"math/rand"
	"slices"
	"testing"

	"puppies/internal/dct"
)

// refEncodeBlock is the scalar emit walk the mask walk replaced: it visits
// all 63 AC positions and branches on each zero. Kept as the reference the
// production walk must match bit for bit.
func refEncodeBlock(bw *bitWriter, b *dct.Block, pred int32, dcT, acT *encTable) (int32, error) {
	diff := b[0] - pred
	cat := magnitudeCategory(diff)
	if dcT.size[cat] == 0 {
		return 0, fmt.Errorf("jpegc: DC symbol %#x has no huffman code", cat)
	}
	bw.WriteBits(dcT.code[cat]<<cat|magnitudeBits(diff, cat), uint(dcT.size[cat])+uint(cat))

	run := 0
	for zz := 1; zz < dct.BlockLen; zz++ {
		v := b[dct.ZigZag[zz]]
		if v == 0 {
			run++
			continue
		}
		for run > 15 {
			if acT.size[0xf0] == 0 {
				return 0, fmt.Errorf("jpegc: AC symbol %#x has no huffman code", 0xf0)
			}
			bw.WriteBits(acT.code[0xf0], uint(acT.size[0xf0])) // ZRL
			run -= 16
		}
		size := magnitudeCategory(v)
		sym := byte(run<<4 | size)
		if acT.size[sym] == 0 {
			return 0, fmt.Errorf("jpegc: AC symbol %#x has no huffman code", sym)
		}
		bw.WriteBits(acT.code[sym]<<size|magnitudeBits(v, size), uint(acT.size[sym])+uint(size))
		run = 0
	}
	if run > 0 {
		if acT.size[0x00] == 0 {
			return 0, fmt.Errorf("jpegc: AC symbol %#x has no huffman code", 0x00)
		}
		bw.WriteBits(acT.code[0x00], uint(acT.size[0x00])) // EOB
	}
	return b[0], nil
}

// refCountBlock is the scalar statistics walk matching refEncodeBlock.
func refCountBlock(b *dct.Block, pred int32, dc, ac *[256]int64) int32 {
	diff := b[0] - pred
	dc[magnitudeCategory(diff)]++

	run := 0
	for zz := 1; zz < dct.BlockLen; zz++ {
		v := b[dct.ZigZag[zz]]
		if v == 0 {
			run++
			continue
		}
		for run > 15 {
			ac[0xf0]++ // ZRL
			run -= 16
		}
		size := magnitudeCategory(v)
		ac[byte(run<<4|size)]++
		run = 0
	}
	if run > 0 {
		ac[0x00]++ // EOB
	}
	return b[0]
}

// refWalkMCUs calls fn for every block of the scan in emit order, with the
// table index and whether the block's MCU starts a restart interval.
func refWalkMCUs(m *Image, restartInterval int, fn func(ci, ti int, b *dct.Block, restart bool) error) error {
	mcusX, mcusY := m.mcuGrid()
	for mcu := 0; mcu < mcusX*mcusY; mcu++ {
		mx, my := mcu%mcusX, mcu/mcusX
		restart := restartInterval > 0 && mcu > 0 && mcu%restartInterval == 0
		for ci := range m.Comps {
			ti := min(ci, 1)
			c := &m.Comps[ci]
			hs, vs := c.Sampling()
			for v := 0; v < vs; v++ {
				for h := 0; h < hs; h++ {
					if err := fn(ci, ti, &c.Blocks[c.clampedIndex(mx*hs+h, my*vs+v)], restart); err != nil {
						return err
					}
					restart = false
				}
			}
		}
	}
	return nil
}

// referenceEncode is Encode built on the scalar walks: a serial range
// check, a serial statistics pass and a serial emit pass.
func referenceEncode(m *Image, opts EncodeOptions) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := m.validateCoefficientRanges(); err != nil {
		return nil, err
	}
	tables := tableSet{dcLum: StdDCLuminance, acLum: StdACLuminance, dcChrom: StdDCChrominance, acChrom: StdACChrominance}
	if opts.tables() == TablesOptimized {
		var dc, ac [2][256]int64
		var pred [4]int32
		_ = refWalkMCUs(m, opts.RestartInterval, func(ci, ti int, b *dct.Block, restart bool) error {
			if restart {
				pred = [4]int32{}
			}
			pred[ci] = refCountBlock(b, pred[ci], &dc[ti], &ac[ti])
			return nil
		})
		specs := []*HuffmanSpec{&tables.dcLum, &tables.acLum, &tables.dcChrom, &tables.acChrom}
		freqs := []*[256]int64{&dc[0], &ac[0], &dc[1], &ac[1]}
		for i := 0; i < 2*min(len(m.Comps), 2); i++ {
			spec, err := BuildOptimalSpec(freqs[i])
			if err != nil {
				return nil, err
			}
			*specs[i] = spec
		}
	}
	var enc [4]*encTable
	for i, s := range []*HuffmanSpec{&tables.dcLum, &tables.acLum, &tables.dcChrom, &tables.acChrom} {
		if len(m.Comps) == 1 && i >= 2 {
			break
		}
		t, err := newEncTable(s)
		if err != nil {
			return nil, err
		}
		enc[i] = t
	}

	var buf bytes.Buffer
	if err := writeMarkers(&buf, m, &tables, opts.RestartInterval); err != nil {
		return nil, err
	}
	bw := newBitWriter(&buf)
	defer bw.release()
	var pred [4]int32
	rst := 0
	err := refWalkMCUs(m, opts.RestartInterval, func(ci, ti int, b *dct.Block, restart bool) error {
		if restart {
			bw.WriteRestart(rst)
			rst++
			pred = [4]int32{}
		}
		next, err := refEncodeBlock(bw, b, pred[ci], enc[2*ti], enc[2*ti+1])
		pred[ci] = next
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	buf.Write([]byte{0xff, markerEOI})
	return buf.Bytes(), nil
}

// denseImage builds a w x h image whose luma samples at hs x vs and whose
// chroma (when channels == 3) samples at 1x1, every coefficient drawn over
// its full baseline range.
func denseImage(rng *rand.Rand, w, h, channels, hs, vs int) *Image {
	img := &Image{W: w, H: h, Comps: make([]Component, channels)}
	for ci := range img.Comps {
		c := Component{Quant: dct.StdLuminanceQuant, HSamp: 1, VSamp: 1}
		if ci == 0 {
			c.HSamp, c.VSamp = hs, vs
		}
		img.Comps[ci] = c
	}
	for ci := range img.Comps {
		pw, ph := img.CompDims(ci)
		c := &img.Comps[ci]
		c.BlocksW, c.BlocksH = blocksFor(pw), blocksFor(ph)
		c.Blocks = make([]dct.Block, c.BlocksW*c.BlocksH)
		for bi := range c.Blocks {
			b := &c.Blocks[bi]
			b[0] = int32(rng.Intn(dct.CoeffRange)) + dct.CoeffMin
			for i := 1; i < dct.BlockLen; i++ {
				b[i] = int32(rng.Intn(dct.CoeffMax-dct.ACMin+1)) + dct.ACMin
			}
		}
	}
	return img
}

// TestEncodeMatchesReferenceWalk holds the mask-driven statistics and emit
// walks to the scalar reference walks: identical bytes on dense and sparse
// blocks, EOB-only and ZRL-without-EOB blocks, grayscale and subsampled
// layouts with MCU-padding blocks, with and without restart intervals, in
// both table modes.
func TestEncodeMatchesReferenceWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	images := map[string]*Image{
		"dense-444":  denseImage(rng, 61, 45, 3, 1, 1),
		"dense-420":  denseImage(rng, 61, 45, 3, 2, 2),
		"dense-422":  denseImage(rng, 61, 45, 3, 2, 1),
		"dense-gray": denseImage(rng, 61, 45, 1, 1, 1),
		"random":     randomCoeffImage(rng, 100, 75, 3),
	}

	share, err := FromPlanar(shareRender(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	images["caltech-share"] = share
	for _, tc := range []struct {
		name  string
		ratio image.YCbCrSubsampleRatio
	}{{"sparse-420", image.YCbCrSubsampleRatio420}, {"sparse-422", image.YCbCrSubsampleRatio422}} {
		img, err := Decode(bytes.NewReader(stdlibYCbCr(t, 67, 45, tc.ratio)))
		if err != nil {
			t.Fatal(err)
		}
		images[tc.name] = img
	}
	gray, err := FromPlanar(gradientPlanar(67, 45), Options{})
	if err != nil {
		t.Fatal(err)
	}
	gray.Comps = gray.Comps[:1]
	images["sparse-gray"] = gray

	// Hand-built edge cases: EOB-only blocks (every AC zero), a block
	// whose only AC sits at zigzag 63 (three ZRLs, no EOB), and one whose
	// last two nonzeros are 22 positions apart ending at zigzag 63.
	edge := denseImage(rng, 24, 16, 3, 1, 1)
	for ci := range edge.Comps {
		for bi := range edge.Comps[ci].Blocks {
			b := &edge.Comps[ci].Blocks[bi]
			clear(b[1:])
			switch bi % 3 {
			case 1:
				b[dct.ZigZag[63]] = -1023
			case 2:
				b[dct.ZigZag[1]] = 5
				b[dct.ZigZag[40]] = -3
				b[dct.ZigZag[63]] = 1
			}
		}
	}
	images["edge-cases"] = edge

	for name, img := range images {
		for _, tables := range []TableMode{TablesDefault, TablesOptimized} {
			for _, ri := range []int{0, 1, 7} {
				opts := EncodeOptions{Tables: tables, RestartInterval: ri}
				want, err := referenceEncode(img, opts)
				if err != nil {
					t.Fatalf("%s tables=%d restart=%d: reference walk: %v", name, tables, ri, err)
				}
				var got bytes.Buffer
				if err := img.Encode(&got, opts); err != nil {
					t.Fatalf("%s tables=%d restart=%d: %v", name, tables, ri, err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Errorf("%s tables=%d restart=%d: mask walk wrote %d bytes, reference walk %d, contents differ",
						name, tables, ri, got.Len(), len(want))
				}
			}
		}
	}
}

// refMaskBlocks is the scalar mask pass the row-skipping maskBlocks
// replaced: it visits all 63 AC positions in zigzag order and keeps running
// minima and maxima for the range check. Kept as the reference maskBlocks
// must match.
func refMaskBlocks(blocks []dct.Block, dst []uint64) bool {
	var dcLo, dcHi, acLo, acHi int32
	for bi := range blocks {
		b := &blocks[bi]
		dcLo, dcHi = min(dcLo, b[0]), max(dcHi, b[0])
		var mask uint64
		for zz := 1; zz < dct.BlockLen; zz++ {
			v := b[dct.ZigZag[zz]]
			acLo, acHi = min(acLo, v), max(acHi, v)
			if v != 0 {
				mask |= 1 << zz
			}
		}
		dst[bi] = mask
	}
	return dcLo >= dct.CoeffMin && dcHi <= dct.CoeffMax && acLo >= dct.ACMin && acHi <= dct.CoeffMax
}

// checkMaskBlocks requires maskBlocks to give blocks the reference's masks
// and range verdict.
func checkMaskBlocks(t *testing.T, name string, blocks []dct.Block) {
	t.Helper()
	got := make([]uint64, len(blocks))
	want := make([]uint64, len(blocks))
	gotOK := maskBlocks(blocks, got)
	wantOK := refMaskBlocks(blocks, want)
	if gotOK != wantOK {
		t.Fatalf("%s: in range %v, reference %v", name, gotOK, wantOK)
	}
	for bi := range got {
		if got[bi] != want[bi] {
			t.Fatalf("%s: block %d mask %#x, reference %#x\n%s", name, bi, got[bi], want[bi], blocks[bi].String())
		}
	}
}

// TestMaskBlocksMatchesReference holds the row-skipping mask pass to the
// scalar reference: random dense and sparse blocks, one nonzero at each
// position, every pattern of all-zero rows, and the range edges (and int32
// wraparound) at the DC and at every AC.
func TestMaskBlocksMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	dense := make([]dct.Block, 200)
	sparse := make([]dct.Block, 200)
	for bi := range dense {
		for i := range dense[bi] {
			dense[bi][i] = int32(rng.Intn(2*dct.CoeffRange)) - dct.CoeffRange
		}
		sparse[bi][0] = int32(rng.Intn(dct.CoeffRange)) + dct.CoeffMin
		for n := rng.Intn(6); n > 0; n-- {
			sparse[bi][rng.Intn(dct.BlockLen)] = int32(rng.Intn(2*dct.CoeffMax+1)) - dct.CoeffMax
		}
	}
	checkMaskBlocks(t, "sparse", sparse)
	for bi := range dense {
		checkMaskBlocks(t, fmt.Sprintf("dense block %d", bi), dense[bi:bi+1])
	}
	// Dense blocks in range: each coefficient drawn from its own range.
	inRange := denseImage(rng, 80, 80, 1, 1, 1).Comps[0].Blocks
	checkMaskBlocks(t, "dense in range", inRange)

	var single []dct.Block
	for i := 0; i < dct.BlockLen; i++ {
		for _, v := range []int32{1, -1, dct.CoeffMax, dct.ACMin} {
			var b dct.Block
			b[i] = v
			single = append(single, b)
		}
	}
	checkMaskBlocks(t, "one nonzero", single)

	var rows []dct.Block
	for zero := 0; zero < 1<<dct.BlockSize; zero++ {
		b := inRange[zero%len(inRange)]
		for r := 0; r < dct.BlockSize; r++ {
			if zero>>r&1 != 0 {
				clear(b[r*dct.BlockSize:][:dct.BlockSize])
			}
		}
		rows = append(rows, b)
	}
	checkMaskBlocks(t, "zero rows", rows)

	for i := 0; i < dct.BlockLen; i++ {
		for _, v := range []int32{-1025, -1024, -1023, 1023, 1024, math.MinInt32, math.MaxInt32} {
			for _, fill := range []int32{0, 1} {
				var b dct.Block
				for j := range b {
					b[j] = fill
				}
				b[i] = v
				checkMaskBlocks(t, fmt.Sprintf("index %d = %d on %d", i, v, fill), []dct.Block{b})
			}
		}
	}
}

// FuzzMaskBlocks holds maskBlocks to the scalar reference on fuzzed
// blocks: each coefficient is a little-endian int16, which reaches past
// both ends of the coefficient range.
func FuzzMaskBlocks(f *testing.F) {
	zero := make([]byte, 2*dct.BlockLen)
	f.Add(zero)
	edge := slices.Clone(zero)
	for i, v := range []int16{-1024, -1023, 1023, 1024, -1025} {
		binary.LittleEndian.PutUint16(edge[2*9*i:], uint16(v))
	}
	f.Add(edge)
	f.Fuzz(func(t *testing.T, data []byte) {
		n := min(len(data)/(2*dct.BlockLen), 16)
		if n == 0 {
			t.Skip("fewer than 64 coefficients")
		}
		blocks := make([]dct.Block, n)
		for bi := range blocks {
			for i := range blocks[bi] {
				blocks[bi][i] = int32(int16(binary.LittleEndian.Uint16(data[2*(bi*dct.BlockLen+i):])))
			}
		}
		checkMaskBlocks(t, "fuzzed", blocks)
	})
}
