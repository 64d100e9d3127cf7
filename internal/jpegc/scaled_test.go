package jpegc

import (
	"bytes"
	"image"
	"math"
	"math/rand"
	"testing"

	"puppies/internal/imgplane"
	"puppies/internal/parallel"
)

// planePSNR computes PSNR in dB between two equal-size planar images over
// all channels, with the conventional 255 peak.
func planePSNR(t testing.TB, a, b *imgplane.Image) float64 {
	t.Helper()
	if a.W() != b.W() || a.H() != b.H() || a.Channels() != b.Channels() {
		t.Fatalf("psnr size mismatch: %dx%d/%d vs %dx%d/%d", a.W(), a.H(), a.Channels(), b.W(), b.H(), b.Channels())
	}
	var sum float64
	var n int
	for ci := range a.Planes {
		for i, v := range a.Planes[ci].Pix {
			d := float64(v - b.Planes[ci].Pix[i])
			sum += d * d
			n++
		}
	}
	if sum == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(255*255/(sum/float64(n)))
}

// scaledReference is the full-resolution path at the same target: full
// decode, then the shared bilinear kernel down to the reduced dimensions.
func scaledReference(t testing.TB, img *Image, num int) *imgplane.Image {
	t.Helper()
	full, err := img.ToPlanar()
	if err != nil {
		t.Fatal(err)
	}
	out, err := imgplane.New(ScaledDim(img.W, num), ScaledDim(img.H, num), len(img.Comps))
	if err != nil {
		t.Fatal(err)
	}
	for ci, p := range full.Planes {
		imgplane.ResizeBilinearInto(p, out.Planes[ci])
	}
	return out
}

// scaledNums are the supported numerators; 8 is the full decode ToPlanar
// runs.
var scaledNums = []int{1, 2, 4, 8}

// scaledLayouts returns a wxh image in each chroma layout the scaled decode
// handles natively: the library's own 4:4:4, a stdlib 4:2:0 stream, and a
// 4:2:2 coefficient image (the stdlib encoder never writes 4:2:2).
func scaledLayouts(t testing.TB, w, h int) map[string]*Image {
	t.Helper()
	own, err := FromPlanar(gradientPlanar(w, h), Options{Quality: 85})
	if err != nil {
		t.Fatal(err)
	}
	std, err := Decode(bytes.NewReader(stdlibYCbCr(t, w, h, image.YCbCrSubsampleRatio420)))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Image{
		"444": own,
		"420": std,
		"422": denseImage(rand.New(rand.NewSource(int64(w*h))), w, h, 3, 2, 1),
	}
}

func TestToPlanarScaledGeometry(t *testing.T) {
	for _, tc := range []struct{ w, h int }{
		{8, 8}, {64, 48}, {67, 45}, {100, 75}, {513, 385}, {16, 1024},
	} {
		for name, img := range scaledLayouts(t, tc.w, tc.h) {
			for _, num := range scaledNums {
				small, err := img.ToPlanarScaled(num)
				if err != nil {
					t.Fatalf("%s %dx%d num=%d: %v", name, tc.w, tc.h, num, err)
				}
				if err := small.Validate(); err != nil {
					t.Fatalf("%s %dx%d num=%d: %v", name, tc.w, tc.h, num, err)
				}
				wantW, wantH := ScaledDim(tc.w, num), ScaledDim(tc.h, num)
				if small.W() != wantW || small.H() != wantH {
					t.Fatalf("%s %dx%d num=%d: got %dx%d, want %dx%d", name, tc.w, tc.h, num, small.W(), small.H(), wantW, wantH)
				}
			}
		}
	}
	img, _ := FromPlanar(gradientPlanar(32, 32), Options{})
	for _, num := range []int{0, 3, 16} {
		if _, err := img.ToPlanarScaled(num); err == nil {
			t.Fatalf("num=%d accepted", num)
		}
	}
}

// TestToPlanarScaledMatchesFullPath bounds the scaled decode's deviation
// from the full-resolution path: the only difference is the truncated
// high-frequency residue, which on JPEG-quantized content stays far above
// the 40 dB planner-equivalence bar for the supersampled scales the
// planner uses (see transform.PlanSpec) and is reported for all of them.
func TestToPlanarScaledMatchesFullPath(t *testing.T) {
	for _, sub := range []struct {
		name  string
		ratio image.YCbCrSubsampleRatio
	}{
		{"444", image.YCbCrSubsampleRatio444},
		{"420", image.YCbCrSubsampleRatio420},
		{"422", image.YCbCrSubsampleRatio422},
	} {
		img, err := Decode(bytes.NewReader(stdlibYCbCr(t, 200, 120, sub.ratio)))
		if err != nil {
			t.Fatal(err)
		}
		for _, num := range []int{1, 2, 4} {
			small, err := img.ToPlanarScaled(num)
			if err != nil {
				t.Fatal(err)
			}
			psnr := planePSNR(t, small, scaledReference(t, img, num))
			t.Logf("%s num=%d: %.1f dB", sub.name, num, psnr)
			if psnr < 30 {
				t.Fatalf("%s num=%d: scaled decode diverges from full path: %.1f dB", sub.name, num, psnr)
			}
		}
	}
}

// TestToPlanarScaledDeterminism pins byte-identical output at any worker
// count — the property the serving cache's same-spec-same-bytes ETag
// contract rests on.
func TestToPlanarScaledDeterminism(t *testing.T) {
	for name, img := range scaledLayouts(t, 137, 91) {
		for _, num := range scaledNums {
			base, err := img.ToPlanarScaled(num)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3, 8} {
				prev := parallel.SetWorkers(workers)
				got, err := img.ToPlanarScaled(num)
				parallel.SetWorkers(prev)
				if err != nil {
					t.Fatal(err)
				}
				for ci := range base.Planes {
					for i, v := range base.Planes[ci].Pix {
						if got.Planes[ci].Pix[i] != v {
							t.Fatalf("%s num=%d workers=%d: plane %d sample %d differs", name, num, workers, ci, i)
						}
					}
				}
			}
		}
	}
}
