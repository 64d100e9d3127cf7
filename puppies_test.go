package puppies

import (
	"bytes"
	"image"
	"image/jpeg"
	"math"
	"testing"

	"puppies/internal/dataset"
	"puppies/internal/imgplane"
)

// mustPlainJPEG encodes a stdlib image with the library codec.
func mustPlainJPEG(t *testing.T, src image.Image) []byte {
	t.Helper()
	data, err := EncodeJPEG(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// sampleImage returns a PASCAL-style synthetic photo as a stdlib image.
func sampleImage(t testing.TB, index int) image.Image {
	t.Helper()
	g, err := dataset.NewGenerator(dataset.PASCAL, 77)
	if err != nil {
		t.Fatal(err)
	}
	return g.Item(index).Image.Quantize8().ToStdImage()
}

func rectPSNR(t *testing.T, a, b image.Image, r Rect) float64 {
	t.Helper()
	var mse float64
	var n int
	for y := r.Y; y < r.Y+r.H; y++ {
		for x := r.X; x < r.X+r.W; x++ {
			ra, ga, ba, _ := a.At(x, y).RGBA()
			rb, gb, bb, _ := b.At(x, y).RGBA()
			for _, d := range []float64{
				float64(ra>>8) - float64(rb>>8),
				float64(ga>>8) - float64(gb>>8),
				float64(ba>>8) - float64(bb>>8),
			} {
				mse += d * d
				n += 1
			}
		}
	}
	mse /= float64(n)
	if mse == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(255*255/mse)
}

func TestProtectUnprotectRoundTrip(t *testing.T) {
	src := sampleImage(t, 0)
	region := Rect{X: 96, Y: 96, W: 128, H: 96}
	prot, err := Protect(src, ProtectOptions{Regions: []Rect{region}, Quality: 85})
	if err != nil {
		t.Fatal(err)
	}
	if len(prot.Keys) != 1 || len(prot.Regions) != 1 {
		t.Fatalf("got %d keys, %d regions", len(prot.Keys), len(prot.Regions))
	}

	// The protected JPEG must be readable by the stdlib decoder (i.e. by
	// any PSP).
	if _, err := jpeg.Decode(bytes.NewReader(prot.JPEG)); err != nil {
		t.Fatalf("stdlib cannot decode protected JPEG: %v", err)
	}

	// Without keys the region stays hidden.
	hidden, err := Unprotect(prot.JPEG, prot.Params, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p := rectPSNR(t, src, hidden, prot.Regions[0]); p > 20 {
		t.Errorf("region visible without keys (PSNR %.1f dB)", p)
	}

	// With keys it comes back at JPEG fidelity.
	recovered, err := Unprotect(prot.JPEG, prot.Params, prot.Keys)
	if err != nil {
		t.Fatal(err)
	}
	if p := rectPSNR(t, src, recovered, prot.Regions[0]); p < 30 {
		t.Errorf("recovered region PSNR %.1f dB, want JPEG-level fidelity", p)
	}
}

func TestProtectAutoDetect(t *testing.T) {
	src := sampleImage(t, 1)
	prot, err := Protect(src, ProtectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(prot.Regions) == 0 {
		t.Fatal("auto-detect protected nothing")
	}
	for _, r := range prot.Regions {
		b := src.Bounds()
		if err := r.Validate(b.Dx(), b.Dy()); err != nil {
			t.Errorf("region %+v: %v", r, err)
		}
	}
}

func TestProtectVariantsAndLevels(t *testing.T) {
	src := sampleImage(t, 2)
	region := Rect{X: 64, Y: 64, W: 64, H: 64}
	for _, v := range []Variant{VariantN, VariantB, VariantC, VariantZ} {
		for _, l := range []PrivacyLevel{LevelLow, LevelMedium, LevelHigh} {
			prot, err := Protect(src, ProtectOptions{
				Variant: v, Level: l, Regions: []Rect{region},
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", v, l, err)
			}
			rec, err := Unprotect(prot.JPEG, prot.Params, prot.Keys)
			if err != nil {
				t.Fatalf("%s/%s: %v", v, l, err)
			}
			if p := rectPSNR(t, src, rec, prot.Regions[0]); p < 28 {
				t.Errorf("%s/%s: recovery PSNR %.1f dB", v, l, p)
			}
		}
	}
}

func TestUnprotectTransformedRotation(t *testing.T) {
	src := sampleImage(t, 3)
	region := Rect{X: 96, Y: 96, W: 64, H: 64}
	prot, err := Protect(src, ProtectOptions{Regions: []Rect{region}, Variant: VariantC})
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the PSP rotating the stored image.
	timg, params := pspRotate90(t, prot)
	rec, err := UnprotectTransformed(timg, params, TransformSpec{Op: "rotate90"}, prot.Keys)
	if err != nil {
		t.Fatal(err)
	}
	b := src.Bounds()
	if rec.Bounds().Dx() != b.Dy() || rec.Bounds().Dy() != b.Dx() {
		t.Errorf("rotated recovery has bounds %v", rec.Bounds())
	}
}

// pspRotate90 plays the PSP: decode the protected JPEG, rotate 90 degrees
// in the coefficient domain, re-encode.
func pspRotate90(t *testing.T, prot *Protected) (jpegBytes, params []byte) {
	t.Helper()
	// Round-trip through the facade-level helpers only; internals are fine
	// for the test harness.
	rec, err := PSPTransform(prot.JPEG, TransformSpec{Op: "rotate90"})
	if err != nil {
		t.Fatal(err)
	}
	return rec, prot.Params
}

func TestProtectValidation(t *testing.T) {
	if _, err := Protect(nil, ProtectOptions{}); err == nil {
		t.Error("nil image accepted")
	}
	src := sampleImage(t, 4)
	if _, err := Protect(src, ProtectOptions{Variant: "bogus", Regions: []Rect{{X: 0, Y: 0, W: 8, H: 8}}}); err == nil {
		t.Error("bogus variant accepted")
	}
	if _, err := Protect(src, ProtectOptions{
		Regions: []Rect{{X: 0, Y: 0, W: 16, H: 16}},
		Keys:    []*KeyPair{nil, nil},
	}); err == nil {
		t.Error("key/region count mismatch accepted")
	}
	if _, err := Protect(src, ProtectOptions{Regions: []Rect{{X: -20, Y: -20, W: 4, H: 4}}}); err == nil {
		t.Error("out-of-image region accepted")
	}
}

func TestUnprotectGarbage(t *testing.T) {
	if _, err := Unprotect([]byte("junk"), []byte("{}"), nil); err == nil {
		t.Error("garbage JPEG accepted")
	}
	src := sampleImage(t, 5)
	prot, err := Protect(src, ProtectOptions{Regions: []Rect{{X: 0, Y: 0, W: 16, H: 16}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unprotect(prot.JPEG, []byte("not json"), nil); err == nil {
		t.Error("garbage params accepted")
	}
}

func TestKeyDistributionFlow(t *testing.T) {
	src := sampleImage(t, 6)
	prot, err := Protect(src, ProtectOptions{Regions: []Rect{{X: 32, Y: 32, W: 32, H: 32}}})
	if err != nil {
		t.Fatal(err)
	}
	store := NewKeyStore()
	for _, k := range prot.Keys {
		if err := store.Add(k); err != nil {
			t.Fatal(err)
		}
	}
	bob, err := NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Grant("bob", prot.Keys[0].ID); err != nil {
		t.Fatal(err)
	}
	env, err := store.SealFor("bob", bob.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	received, err := bob.Open(env)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unprotect(prot.JPEG, prot.Params, received); err != nil {
		t.Fatal(err)
	}
}

func TestDetectRegionsOnStdImage(t *testing.T) {
	src := sampleImage(t, 7)
	regions := DetectRegions(src)
	if len(regions) == 0 {
		t.Error("no regions detected on object scene")
	}
}

func TestUnprotectTransformedPixelsScale(t *testing.T) {
	src := sampleImage(t, 8)
	region := Rect{X: 96, Y: 96, W: 64, H: 64}
	prot, err := Protect(src, ProtectOptions{
		Regions: []Rect{region}, Variant: VariantC, TransformSupport: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := TransformSpec{Op: "scale", FactorX: 0.5, FactorY: 0.5}
	plnr, err := PSPTransformPixels(prot.JPEG, spec)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := UnprotectTransformedPixels(plnr, prot.Params, spec, prot.Keys)
	if err != nil {
		t.Fatal(err)
	}
	b := src.Bounds()
	if rec.Bounds().Dx() != b.Dx()/2 || rec.Bounds().Dy() != b.Dy()/2 {
		t.Errorf("scaled recovery bounds %v", rec.Bounds())
	}
	// The scaled-down region must look like the scaled original, not noise:
	// compare against an unprotected scale of the source.
	wantPix, err := PSPTransformPixels(mustPlainJPEG(t, src), spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := imgplane.DecodeBinary(bytes.NewReader(wantPix))
	if err != nil {
		t.Fatal(err)
	}
	wantImg := want.Quantize8().ToStdImage()
	half := Rect{X: region.X / 2, Y: region.Y / 2, W: region.W / 2, H: region.H / 2}
	if p := rectPSNR(t, wantImg, rec, half); p < 28 {
		t.Errorf("scaled recovery PSNR %.1f dB in region", p)
	}
}

// TestUnprotectTransformedPixelsFlatZRegion covers a VariantZ region whose
// blocks have no nonzero AC coefficient: its recorded support list is empty,
// and pixel-domain recovery must still accept it.
func TestUnprotectTransformedPixelsFlatZRegion(t *testing.T) {
	src := image.NewRGBA(image.Rect(0, 0, 128, 128))
	for i := range src.Pix {
		src.Pix[i] = 128
	}
	region := Rect{X: 64, Y: 64, W: 32, H: 32}
	prot, err := Protect(src, ProtectOptions{
		Regions: []Rect{region}, Variant: VariantZ, TransformSupport: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := TransformSpec{Op: "scale", FactorX: 0.5, FactorY: 0.5}
	plnr, err := PSPTransformPixels(prot.JPEG, spec)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := UnprotectTransformedPixels(plnr, prot.Params, spec, prot.Keys)
	if err != nil {
		t.Fatal(err)
	}
	half := Rect{X: region.X / 2, Y: region.Y / 2, W: region.W / 2, H: region.H / 2}
	if p := rectPSNR(t, src, rec, half); p < 40 {
		t.Errorf("flat region recovery PSNR %.1f dB", p)
	}

	// Without TransformSupport no list was recorded, and recovery refuses.
	unsupported, err := Protect(src, ProtectOptions{Regions: []Rect{region}, Variant: VariantZ})
	if err != nil {
		t.Fatal(err)
	}
	if plnr, err = PSPTransformPixels(unsupported.JPEG, spec); err != nil {
		t.Fatal(err)
	}
	if _, err := UnprotectTransformedPixels(plnr, unsupported.Params, spec, unsupported.Keys); err == nil {
		t.Error("flat region protected without TransformSupport was recovered in the pixel domain")
	}
}
