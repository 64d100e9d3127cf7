package jpegc

import (
	"bytes"
	"fmt"
	"image"
	"image/color"
	"image/jpeg"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"puppies/internal/dct"
	"puppies/internal/imgplane"
)

// randomCoeffImage builds a structurally valid coefficient image with
// natural-ish statistics: most high-frequency coefficients zero.
func randomCoeffImage(rng *rand.Rand, w, h, channels int) *Image {
	bw, bh := blocksFor(w), blocksFor(h)
	img := &Image{W: w, H: h, Comps: make([]Component, channels)}
	for ci := 0; ci < channels; ci++ {
		qt := dct.StdLuminanceQuant
		if ci > 0 {
			qt = dct.StdChrominanceQuant
		}
		comp := Component{BlocksW: bw, BlocksH: bh, Blocks: make([]dct.Block, bw*bh), Quant: qt}
		for bi := range comp.Blocks {
			b := &comp.Blocks[bi]
			b[0] = int32(rng.Intn(2048) - 1024)
			// Low frequencies active, high frequencies mostly zero.
			for zz := 1; zz < 16; zz++ {
				if rng.Intn(2) == 0 {
					b[dct.ZigZag[zz]] = int32(rng.Intn(2047) - 1023)
				}
			}
			if rng.Intn(4) == 0 {
				b[dct.ZigZag[30+rng.Intn(33)]] = int32(rng.Intn(41) - 20)
			}
		}
		img.Comps[ci] = comp
	}
	return img
}

func gradientPlanar(w, h int) *imgplane.Image {
	img, _ := imgplane.New(w, h, 3)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			img.Planes[0].Pix[i] = float32((x*255)/w+(y*255)/h) / 2
			img.Planes[1].Pix[i] = float32(128 + 40*math.Sin(float64(x)/10))
			img.Planes[2].Pix[i] = float32(128 + 40*math.Cos(float64(y)/7))
		}
	}
	return img
}

func TestEncodeDecodeRoundTripDefaultTables(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ w, h, ch int }{
		{64, 48, 3}, {17, 9, 3}, {8, 8, 1}, {33, 64, 1}, {100, 75, 3},
	} {
		img := randomCoeffImage(rng, tc.w, tc.h, tc.ch)
		var buf bytes.Buffer
		if err := img.Encode(&buf, EncodeOptions{Tables: TablesDefault}); err != nil {
			t.Fatalf("%dx%d/%d encode: %v", tc.w, tc.h, tc.ch, err)
		}
		got, err := Decode(&buf)
		if err != nil {
			t.Fatalf("%dx%d/%d decode: %v", tc.w, tc.h, tc.ch, err)
		}
		assertCoeffEqual(t, img, got)
	}
}

func TestEncodeDecodeRoundTripOptimizedTables(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, tc := range []struct{ w, h, ch int }{
		{64, 48, 3}, {24, 24, 1}, {80, 55, 3},
	} {
		img := randomCoeffImage(rng, tc.w, tc.h, tc.ch)
		var buf bytes.Buffer
		if err := img.Encode(&buf, EncodeOptions{Tables: TablesOptimized}); err != nil {
			t.Fatalf("%dx%d/%d encode: %v", tc.w, tc.h, tc.ch, err)
		}
		got, err := Decode(&buf)
		if err != nil {
			t.Fatalf("%dx%d/%d decode: %v", tc.w, tc.h, tc.ch, err)
		}
		assertCoeffEqual(t, img, got)
	}
}

func assertCoeffEqual(t *testing.T, want, got *Image) {
	t.Helper()
	if got.W != want.W || got.H != want.H || len(got.Comps) != len(want.Comps) {
		t.Fatalf("shape mismatch: got %dx%d/%d want %dx%d/%d",
			got.W, got.H, len(got.Comps), want.W, want.H, len(want.Comps))
	}
	for ci := range want.Comps {
		if got.Comps[ci].Quant != want.Comps[ci].Quant {
			t.Fatalf("component %d quant table mismatch", ci)
		}
		for bi := range want.Comps[ci].Blocks {
			if got.Comps[ci].Blocks[bi] != want.Comps[ci].Blocks[bi] {
				t.Fatalf("component %d block %d mismatch:\ngot:\n%swant:\n%s",
					ci, bi, got.Comps[ci].Blocks[bi].String(), want.Comps[ci].Blocks[bi].String())
			}
		}
	}
}

func TestOptimizedSmallerThanDefaultOnSkewedData(t *testing.T) {
	// An image dominated by a few symbols compresses better with optimized
	// tables; this is the PuPPIeS-C mechanism.
	rng := rand.New(rand.NewSource(3))
	img := randomCoeffImage(rng, 256, 256, 3)
	// Perturb to break the default tables' assumptions.
	for ci := range img.Comps {
		for bi := range img.Comps[ci].Blocks {
			b := &img.Comps[ci].Blocks[bi]
			for i := 1; i < dct.BlockLen; i++ {
				if b[i] == 0 {
					b[i] = int32(rng.Intn(1200) - 600)
				}
			}
		}
	}
	defSize, err := img.EncodedSize(EncodeOptions{Tables: TablesDefault})
	if err != nil {
		t.Fatal(err)
	}
	optSize, err := img.EncodedSize(EncodeOptions{Tables: TablesOptimized})
	if err != nil {
		t.Fatal(err)
	}
	if optSize >= defSize {
		t.Errorf("optimized size %d not smaller than default %d", optSize, defSize)
	}
}

func TestStdlibDecodesOurColorOutput(t *testing.T) {
	planar := gradientPlanar(96, 64)
	img, err := FromPlanar(planar, Options{Quality: 85})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []TableMode{TablesDefault, TablesOptimized} {
		var buf bytes.Buffer
		if err := img.Encode(&buf, EncodeOptions{Tables: mode}); err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		decoded, err := jpeg.Decode(&buf)
		if err != nil {
			t.Fatalf("mode %d: stdlib decode rejected our stream: %v", mode, err)
		}
		if decoded.Bounds().Dx() != 96 || decoded.Bounds().Dy() != 64 {
			t.Fatalf("mode %d: stdlib decoded %v", mode, decoded.Bounds())
		}
		// Pixel content must match our own reconstruction closely.
		ours, err := img.ToPlanar()
		if err != nil {
			t.Fatal(err)
		}
		ourRGBA := ours.ToStdImage()
		var maxDiff int
		for y := 0; y < 64; y++ {
			for x := 0; x < 96; x++ {
				r0, g0, b0, _ := ourRGBA.At(x, y).RGBA()
				r1, g1, b1, _ := decoded.At(x, y).RGBA()
				for _, d := range []int{
					int(r0>>8) - int(r1>>8), int(g0>>8) - int(g1>>8), int(b0>>8) - int(b1>>8),
				} {
					if d < 0 {
						d = -d
					}
					if d > maxDiff {
						maxDiff = d
					}
				}
			}
		}
		if maxDiff > 2 {
			t.Errorf("mode %d: stdlib and jpegc reconstructions differ by up to %d", mode, maxDiff)
		}
	}
}

func TestWeDecodeStdlibGrayscaleOutput(t *testing.T) {
	src := image.NewGray(image.Rect(0, 0, 40, 56))
	rng := rand.New(rand.NewSource(4))
	for y := 0; y < 56; y++ {
		for x := 0; x < 40; x++ {
			src.SetGray(x, y, color.Gray{Y: uint8((x*3 + y*2 + rng.Intn(32)) % 256)})
		}
	}
	var buf bytes.Buffer
	if err := jpeg.Encode(&buf, src, &jpeg.Options{Quality: 90}); err != nil {
		t.Fatal(err)
	}
	img, err := Decode(&buf)
	if err != nil {
		t.Fatalf("decoding stdlib grayscale stream: %v", err)
	}
	if img.W != 40 || img.H != 56 || img.Channels() != 1 {
		t.Fatalf("got %dx%d/%d", img.W, img.H, img.Channels())
	}
	// Reconstructed pixels must be close to the source.
	planar, err := img.ToPlanar()
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for y := 0; y < 56; y++ {
		for x := 0; x < 40; x++ {
			d := math.Abs(float64(planar.Planes[0].Pix[y*40+x]) - float64(src.GrayAt(x, y).Y))
			if d > worst {
				worst = d
			}
		}
	}
	if worst > 25 {
		t.Errorf("worst reconstruction error %v too large", worst)
	}
}

func TestPlanarRoundTripHighQuality(t *testing.T) {
	planar := gradientPlanar(64, 64)
	img, err := FromPlanar(planar, Options{Quality: 100})
	if err != nil {
		t.Fatal(err)
	}
	back, err := img.ToPlanar()
	if err != nil {
		t.Fatal(err)
	}
	psnr, err := imgplane.ImagePSNR(planar, back)
	if err != nil {
		t.Fatal(err)
	}
	if psnr < 40 {
		t.Errorf("quality-100 round trip PSNR %v dB, want > 40", psnr)
	}
}

func TestDecodeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	img := randomCoeffImage(rng, 32, 32, 3)
	var buf bytes.Buffer
	if err := img.Encode(&buf, EncodeOptions{}); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	tests := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"not a jpeg", []byte("definitely not a jpeg stream")},
		{"missing SOI", valid[2:]},
		{"truncated header", valid[:20]},
		{"truncated entropy data", valid[:len(valid)-40]},
		{"missing EOI", valid[:len(valid)-2]},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Decode(bytes.NewReader(tt.data)); err == nil {
				t.Error("Decode succeeded on malformed input")
			}
		})
	}
}

func TestEncodeRejectsOutOfRangeCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	img := randomCoeffImage(rng, 16, 16, 1)
	img.Comps[0].Blocks[0][5] = -1024 // AC below baseline minimum
	var buf bytes.Buffer
	if err := img.Encode(&buf, EncodeOptions{}); err == nil {
		t.Error("Encode accepted AC coefficient -1024")
	}
	img.Comps[0].Blocks[0][5] = 0
	img.Comps[0].Blocks[0][0] = 2000
	if err := img.Encode(&buf, EncodeOptions{}); err == nil {
		t.Error("Encode accepted DC coefficient 2000")
	}

	// AC -1024 at every zigzag position of a block deep in an image of
	// several mask chunks: the parallel pass must catch it wherever it
	// sits, and the error must name the first offending block.
	img = randomCoeffImage(rng, 300, 300, 3)
	if n := img.blockCount(); n <= maskGrain {
		t.Fatalf("image has %d blocks, want more than one mask chunk (%d)", n, maskGrain)
	}
	const bi = 1000
	img.Comps[2].Blocks[bi+1][dct.ZigZag[9]] = -1024 // a later offender
	for zz := 1; zz < dct.BlockLen; zz++ {
		b := &img.Comps[2].Blocks[bi]
		saved := *b
		b[dct.ZigZag[zz]] = -1024
		err := img.Encode(&buf, EncodeOptions{Tables: TablesOptimized})
		want := fmt.Sprintf("component 2 block %d AC[%d] -1024 out of range", bi, dct.ZigZag[zz])
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("zigzag %d: got error %v, want one containing %q", zz, err, want)
		}
		*b = saved
	}
}

func TestMagnitudeCodingRoundTrip(t *testing.T) {
	f := func(v int32) bool {
		v %= 2048
		size := magnitudeCategory(v)
		bits := magnitudeBits(v, size)
		return extendMagnitude(bits, size) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// Exhaustive check over the DC difference range.
	for v := int32(-2047); v <= 2047; v++ {
		size := magnitudeCategory(v)
		if extendMagnitude(magnitudeBits(v, size), size) != v {
			t.Fatalf("magnitude round trip failed for %d", v)
		}
	}
}

func TestMagnitudeCategory(t *testing.T) {
	tests := []struct {
		v    int32
		want int
	}{
		{0, 0}, {1, 1}, {-1, 1}, {2, 2}, {3, 2}, {-3, 2}, {4, 3},
		{255, 8}, {256, 9}, {1023, 10}, {-1023, 10}, {1024, 11}, {-2047, 11},
	}
	for _, tt := range tests {
		if got := magnitudeCategory(tt.v); got != tt.want {
			t.Errorf("magnitudeCategory(%d) = %d, want %d", tt.v, got, tt.want)
		}
	}
}

func TestBuildOptimalSpecProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		var freq [256]int64
		nSyms := 1 + rng.Intn(200)
		for i := 0; i < nSyms; i++ {
			freq[rng.Intn(256)] = int64(1 + rng.Intn(100000))
		}
		spec, err := BuildOptimalSpec(&freq)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("trial %d: invalid spec: %v", trial, err)
		}
		// Every symbol with nonzero frequency must have a code.
		coded := map[byte]bool{}
		for _, v := range spec.Values {
			coded[v] = true
		}
		for s, f := range freq {
			if f > 0 && !coded[byte(s)] {
				t.Fatalf("trial %d: symbol %d (freq %d) missing from table", trial, s, f)
			}
		}
	}
}

func TestBuildOptimalSpecSingleSymbol(t *testing.T) {
	var freq [256]int64
	freq[42] = 1000
	spec, err := BuildOptimalSpec(&freq)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Values) != 1 || spec.Values[0] != 42 {
		t.Fatalf("got values %v", spec.Values)
	}
	tbl, err := newEncTable(&spec)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.size[42] == 0 {
		t.Error("single symbol has no code")
	}
}

func TestHuffmanSpecValidate(t *testing.T) {
	bad := HuffmanSpec{Counts: [16]byte{3}, Values: []byte{1, 2, 3}}
	if err := bad.Validate(); err == nil {
		t.Error("3 codes of length 1 should be invalid (max 2)")
	}
	dup := HuffmanSpec{Counts: [16]byte{0, 2}, Values: []byte{1, 1}}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate symbols should be invalid")
	}
	mismatch := HuffmanSpec{Counts: [16]byte{0, 2}, Values: []byte{1}}
	if err := mismatch.Validate(); err == nil {
		t.Error("count/value mismatch should be invalid")
	}
	for _, s := range []HuffmanSpec{StdDCLuminance, StdDCChrominance, StdACLuminance, StdACChrominance} {
		if err := s.Validate(); err != nil {
			t.Errorf("standard table invalid: %v", err)
		}
	}
}

func TestEncodedSizeMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	img := randomCoeffImage(rng, 48, 48, 3)
	var buf bytes.Buffer
	if err := img.Encode(&buf, EncodeOptions{}); err != nil {
		t.Fatal(err)
	}
	n, err := img.EncodedSize(EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("EncodedSize = %d, Encode wrote %d", n, buf.Len())
	}
}

func BenchmarkEncodeDefault(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	img := randomCoeffImage(rng, 512, 384, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var cw countingWriter
		if err := img.Encode(&cw, EncodeOptions{Tables: TablesDefault}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeOptimized(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	img := randomCoeffImage(rng, 512, 384, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var cw countingWriter
		if err := img.Encode(&cw, EncodeOptions{Tables: TablesOptimized}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	img := randomCoeffImage(rng, 512, 384, 3)
	var buf bytes.Buffer
	if err := img.Encode(&buf, EncodeOptions{}); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPlanar builds a natural-statistics planar image for the block-grid
// conversion benchmarks.
func benchPlanar(b *testing.B, w, h int) *imgplane.Image {
	b.Helper()
	planar, err := imgplane.New(w, h, 3)
	if err != nil {
		b.Fatal(err)
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			planar.Planes[0].Pix[i] = float32(128 + 80*math.Sin(float64(x)/7)*math.Cos(float64(y)/9))
			planar.Planes[1].Pix[i] = float32(128 + 30*math.Sin(float64(x+2*y)/17))
			planar.Planes[2].Pix[i] = float32(128 + 30*math.Cos(float64(2*x-y)/19))
		}
	}
	return planar
}

// BenchmarkFromPlanar measures the pixel -> quantized-coefficient block-grid
// conversion (forward DCT over every block).
func BenchmarkFromPlanar(b *testing.B) {
	planar := benchPlanar(b, 512, 384)
	b.ReportAllocs()
	b.SetBytes(512 * 384 * 3 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromPlanar(planar, Options{Quality: 75}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkToPlanar measures the coefficient -> pixel conversion (inverse
// DCT over every block).
func BenchmarkToPlanar(b *testing.B) {
	planar := benchPlanar(b, 512, 384)
	img, err := FromPlanar(planar, Options{Quality: 75})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(512 * 384 * 3 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := img.ToPlanar(); err != nil {
			b.Fatal(err)
		}
	}
}
