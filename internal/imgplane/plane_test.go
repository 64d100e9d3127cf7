package imgplane

import (
	"image"
	"image/color"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRGBYUVRoundTrip(t *testing.T) {
	f := func(r8, g8, b8 uint8) bool {
		y, u, v := RGBToYUV(float32(r8), float32(g8), float32(b8))
		r, g, b := YUVToRGB(y, u, v)
		return math.Abs(float64(r)-float64(r8)) < 0.01 &&
			math.Abs(float64(g)-float64(g8)) < 0.01 &&
			math.Abs(float64(b)-float64(b8)) < 0.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestYUVRanges(t *testing.T) {
	// Primaries and extremes must stay within the nominal 0..255 range.
	for _, rgb := range [][3]float32{
		{0, 0, 0}, {255, 255, 255}, {255, 0, 0}, {0, 255, 0}, {0, 0, 255},
		{255, 255, 0}, {0, 255, 255}, {255, 0, 255},
	} {
		y, u, v := RGBToYUV(rgb[0], rgb[1], rgb[2])
		for _, s := range []float32{y, u, v} {
			if s < -0.5 || s > 255.5 {
				t.Errorf("RGB %v gave out-of-range YUV component %v", rgb, s)
			}
		}
	}
	// Gray values map to U=V=128.
	y, u, v := RGBToYUV(90, 90, 90)
	if math.Abs(float64(y)-90) > 1e-3 || math.Abs(float64(u)-128) > 1e-3 || math.Abs(float64(v)-128) > 1e-3 {
		t.Errorf("gray 90 mapped to (%v,%v,%v)", y, u, v)
	}
}

func TestPlaneAtEdgeClamping(t *testing.T) {
	p := NewPlane(4, 3)
	p.Set(0, 0, 7)
	p.Set(3, 2, 9)
	tests := []struct {
		x, y int
		want float32
	}{
		{-1, -1, 7}, {0, -5, 7}, {-2, 0, 7},
		{10, 10, 9}, {3, 99, 9}, {99, 2, 9},
		{0, 0, 7}, {3, 2, 9},
	}
	for _, tt := range tests {
		if got := p.At(tt.x, tt.y); got != tt.want {
			t.Errorf("At(%d,%d) = %v, want %v", tt.x, tt.y, got, tt.want)
		}
	}
}

func TestPlaneSetOutOfBoundsIgnored(t *testing.T) {
	p := NewPlane(2, 2)
	p.Set(-1, 0, 5)
	p.Set(0, -1, 5)
	p.Set(2, 0, 5)
	p.Set(0, 2, 5)
	for i, v := range p.Pix {
		if v != 0 {
			t.Errorf("sample %d modified by out-of-bounds Set: %v", i, v)
		}
	}
}

func TestAddSub(t *testing.T) {
	a := NewPlane(3, 3)
	b := NewPlane(3, 3)
	for i := range a.Pix {
		a.Pix[i] = float32(i)
		b.Pix[i] = float32(2 * i)
	}
	sum, err := a.Add(b)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := sum.Sub(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Pix {
		if diff.Pix[i] != a.Pix[i] {
			t.Fatalf("(a+b)-b != a at %d", i)
		}
	}
	if _, err := a.Add(NewPlane(2, 2)); err == nil {
		t.Error("Add with mismatched sizes should error")
	}
	if _, err := a.Sub(NewPlane(2, 2)); err == nil {
		t.Error("Sub with mismatched sizes should error")
	}
}

func TestNewImageValidation(t *testing.T) {
	if _, err := New(4, 4, 2); err == nil {
		t.Error("New with 2 channels should error")
	}
	img, err := New(5, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if img.W() != 5 || img.H() != 7 || img.Channels() != 3 {
		t.Errorf("got %dx%d/%d", img.W(), img.H(), img.Channels())
	}
	if err := img.Validate(); err != nil {
		t.Errorf("valid image failed validation: %v", err)
	}
	img.Planes[1] = NewPlane(4, 7)
	if err := img.Validate(); err == nil {
		t.Error("mismatched plane sizes should fail validation")
	}
}

func TestStdImageRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := image.NewRGBA(image.Rect(0, 0, 16, 12))
	for y := 0; y < 12; y++ {
		for x := 0; x < 16; x++ {
			src.SetRGBA(x, y, color.RGBA{
				R: uint8(rng.Intn(256)), G: uint8(rng.Intn(256)), B: uint8(rng.Intn(256)), A: 255,
			})
		}
	}
	planar, err := FromStdImage(src)
	if err != nil {
		t.Fatal(err)
	}
	back := planar.ToStdImage()
	for y := 0; y < 12; y++ {
		for x := 0; x < 16; x++ {
			r0, g0, b0, _ := src.At(x, y).RGBA()
			r1, g1, b1, _ := back.At(x, y).RGBA()
			if absDiff(r0>>8, r1>>8) > 1 || absDiff(g0>>8, g1>>8) > 1 || absDiff(b0>>8, b1>>8) > 1 {
				t.Fatalf("pixel (%d,%d): (%d,%d,%d) -> (%d,%d,%d)",
					x, y, r0>>8, g0>>8, b0>>8, r1>>8, g1>>8, b1>>8)
			}
		}
	}
}

func absDiff(a, b uint32) uint32 {
	if a > b {
		return a - b
	}
	return b - a
}

func TestCloneIsDeep(t *testing.T) {
	img, _ := New(4, 4, 3)
	img.Planes[0].Pix[0] = 42
	cp := img.Clone()
	cp.Planes[0].Pix[0] = 7
	if img.Planes[0].Pix[0] != 42 {
		t.Error("Clone shares storage with the original")
	}
}

func TestPSNRAndMSE(t *testing.T) {
	a := NewPlane(8, 8)
	b := NewPlane(8, 8)
	for i := range a.Pix {
		a.Pix[i] = 100
		b.Pix[i] = 110
	}
	mse, err := MSE(a, b)
	if err != nil || mse != 100 {
		t.Errorf("MSE = %v, %v; want 100", mse, err)
	}
	p, err := PSNR(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := 10 * math.Log10(255*255/100.0)
	if math.Abs(p-want) > 1e-9 {
		t.Errorf("PSNR = %v, want %v", p, want)
	}
	same, err := PSNR(a, a)
	if err != nil || !math.IsInf(same, 1) {
		t.Errorf("PSNR of identical planes = %v, %v; want +Inf", same, err)
	}
	if _, err := MSE(a, NewPlane(4, 4)); err == nil {
		t.Error("MSE with mismatched sizes should error")
	}
}

func TestSSIM(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := NewPlane(32, 32)
	for i := range a.Pix {
		a.Pix[i] = float32(rng.Intn(256))
	}
	self, err := SSIM(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(self-1) > 1e-9 {
		t.Errorf("SSIM(a,a) = %v, want 1", self)
	}
	noise := a.Clone()
	for i := range noise.Pix {
		noise.Pix[i] = float32(rng.Intn(256))
	}
	diff, err := SSIM(a, noise)
	if err != nil {
		t.Fatal(err)
	}
	if diff > 0.5 {
		t.Errorf("SSIM of independent noise = %v, expected low", diff)
	}
	if _, err := SSIM(a, NewPlane(8, 8)); err == nil {
		t.Error("SSIM with mismatched sizes should error")
	}
	if _, err := SSIM(NewPlane(4, 4), NewPlane(4, 4)); err == nil {
		t.Error("SSIM on tiny planes should error")
	}
}

// opaqueImage hides the concrete type of an image so FromStdImage takes
// its generic At-based path.
type opaqueImage struct{ image.Image }

// TestFromStdImageFastPathsMatchGeneric pins that the typed Pix-slice
// readers in FromStdImage produce bit-identical planes to the generic
// color.Color route they replace, including non-opaque NRGBA pixels,
// every YCbCr subsample ratio, the RGBA64At reader's 16-bit, CMYK and
// paletted images, and a non-zero bounds origin.
func TestFromStdImageFastPathsMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bounds := image.Rect(3, 5, 3+37, 5+23)

	rgba := image.NewRGBA(bounds)
	nrgba := image.NewNRGBA(bounds)
	gray := image.NewGray(bounds)
	for i := range rgba.Pix {
		rgba.Pix[i] = uint8(rng.Intn(256))
	}
	// Premultiplied storage requires channel <= alpha per pixel.
	for i := 0; i < len(rgba.Pix); i += 4 {
		a := rgba.Pix[i+3]
		for c := 0; c < 3; c++ {
			if rgba.Pix[i+c] > a {
				rgba.Pix[i+c] = a
			}
		}
	}
	for i := range nrgba.Pix {
		nrgba.Pix[i] = uint8(rng.Intn(256))
	}
	for i := range gray.Pix {
		gray.Pix[i] = uint8(rng.Intn(256))
	}

	// 16-bit, CMYK and paletted images take the RGBA64At reader.
	nrgba64 := image.NewNRGBA64(bounds)
	rgba64 := image.NewRGBA64(bounds)
	gray16 := image.NewGray16(bounds)
	cmyk := image.NewCMYK(bounds)
	for _, p := range [][]uint8{nrgba64.Pix, rgba64.Pix, gray16.Pix, cmyk.Pix} {
		for i := range p {
			p[i] = uint8(rng.Intn(256))
		}
	}
	var palette color.Palette
	for i := 0; i < 16; i++ {
		palette = append(palette, color.NRGBA{uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256))})
	}
	paletted := image.NewPaletted(bounds, palette)
	for i := range paletted.Pix {
		paletted.Pix[i] = uint8(rng.Intn(len(palette)))
	}

	type testCase struct {
		name string
		src  image.Image
	}
	cases := []testCase{
		{"rgba", rgba},
		{"nrgba", nrgba},
		{"gray", gray},
		{"nrgba64", nrgba64},
		{"rgba64", rgba64},
		{"gray16", gray16},
		{"cmyk", cmyk},
		{"paletted", paletted},
	}
	// YCbCr at every subsample ratio, both allocated at the odd bounds and
	// cut from a larger image at a negative odd origin (chroma offsets
	// truncate toward zero there).
	for r := image.YCbCrSubsampleRatio444; r <= image.YCbCrSubsampleRatio410; r++ {
		own := image.NewYCbCr(bounds, r)
		sub := image.NewYCbCr(image.Rect(-4, -3, 41, 30), r)
		for _, m := range []*image.YCbCr{own, sub} {
			for _, p := range [][]uint8{m.Y, m.Cb, m.Cr} {
				for i := range p {
					p[i] = uint8(rng.Intn(256))
				}
			}
		}
		cases = append(cases,
			testCase{"ycbcr " + r.String(), own},
			testCase{"ycbcr sub " + r.String(), sub.SubImage(image.Rect(-3, -1, 34, 22))})
	}
	for _, tc := range cases {
		fast, err := FromStdImage(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ref, err := FromStdImage(opaqueImage{tc.src})
		if err != nil {
			t.Fatalf("%s generic: %v", tc.name, err)
		}
		for ch := 0; ch < 3; ch++ {
			for i, v := range ref.Planes[ch].Pix {
				if fast.Planes[ch].Pix[i] != v {
					t.Fatalf("%s: channel %d sample %d: fast %v != generic %v",
						tc.name, ch, i, fast.Planes[ch].Pix[i], v)
				}
			}
		}
	}
}
