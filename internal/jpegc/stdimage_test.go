package jpegc

import (
	"fmt"
	"image"
	"math/rand"
	"testing"

	"puppies/internal/benchgate"
	"puppies/internal/dct"
	"puppies/internal/imgplane"
	"puppies/internal/parallel"
)

// opaqueImage hides the concrete type of an image so the row reader takes
// its generic At-based path.
type opaqueImage struct{ image.Image }

// randomStdImages returns one image of each type FromStdImage reads, at
// bounds r, filled from rng.
func randomStdImages(rng *rand.Rand, r image.Rectangle) map[string]image.Image {
	fill := func(p []uint8) {
		for i := range p {
			p[i] = uint8(rng.Intn(256))
		}
	}
	rgba := image.NewRGBA(r)
	fill(rgba.Pix)
	// Premultiplied storage requires channel <= alpha per pixel.
	for i := 0; i < len(rgba.Pix); i += 4 {
		for c := 0; c < 3; c++ {
			rgba.Pix[i+c] = min(rgba.Pix[i+c], rgba.Pix[i+3])
		}
	}
	nrgba := image.NewNRGBA(r)
	fill(nrgba.Pix)
	gray := image.NewGray(r)
	fill(gray.Pix)
	ycc := image.NewYCbCr(r, image.YCbCrSubsampleRatio420)
	fill(ycc.Y)
	fill(ycc.Cb)
	fill(ycc.Cr)
	return map[string]image.Image{
		"rgba": rgba, "nrgba": nrgba, "gray": gray, "ycbcr": ycc,
		"generic": opaqueImage{nrgba},
	}
}

// poisonAttempts bounds the calls TestFromStdImageMatchesPlanar makes
// per case before it gives up on taking a poisoned grid.
const poisonAttempts = 8

// TestFromStdImageMatchesPlanar requires the strip path to build the
// coefficients of the two-step path, FromPlanar(imgplane.FromStdImage(src)),
// block for block, for every reader type, partial edge blocks, every
// quality extreme and worker count, with the block grids and the pixel
// strips taken poisoned from their pools.
func TestFromStdImageMatchesPlanar(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	srcs := map[string]image.Image{"share": shareStd(t)}
	for _, size := range []image.Point{{1, 1}, {7, 9}, {37, 23}} {
		r := image.Rectangle{Max: size}.Add(image.Pt(3, 5))
		for name, src := range randomStdImages(rng, r) {
			srcs[fmt.Sprintf("%s %dx%d", name, size.X, size.Y)] = src
		}
	}
	defer parallel.SetWorkers(parallel.SetWorkers(0))
	tookStrip := 0
	for name, src := range srcs {
		planar, err := imgplane.FromStdImage(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []int{1, 50, 75, 100} {
			want, err := FromPlanar(planar, Options{Quality: q})
			if err != nil {
				t.Fatal(err)
			}
			for workers := 1; workers <= 4; workers++ {
				parallel.SetWorkers(workers)
				// sync.Pool may drop the poisoned slabs at any GC, so a
				// call that missed them is retried, a bounded number of
				// times; the call that took one is the one compared.
				var (
					got    *Image
					strips map[*float32]bool
				)
				for attempt := 0; ; attempt++ {
					var slabs map[*dct.Block]bool
					slabs, strips = poisonPools(want.blockCount(), 3*dct.BlockSize*want.W)
					if got, err = FromStdImage(src, Options{Quality: q}); err != nil {
						t.Fatalf("%s q%d workers %d: %v", name, q, workers, err)
					}
					if benchgate.Race || slabs[&got.Comps[0].Blocks[0]] {
						break
					}
					if attempt == poisonAttempts-1 {
						t.Fatalf("%s q%d workers %d: FromStdImage did not take a poisoned grid in %d attempts", name, q, workers, poisonAttempts)
					}
				}
				// A strip taken from the pool holds the block row's
				// samples now. The pool may drop buffers at any time, so
				// this is counted, not required, per call.
				for p := range strips {
					if *p != stripPoison {
						tookStrip++
						break
					}
				}
				if err := got.Validate(); err != nil {
					t.Fatalf("%s q%d workers %d: %v", name, q, workers, err)
				}
				assertCoeffEqual(t, want, got)
			}
		}
	}
	if !benchgate.Race && tookStrip == 0 {
		t.Fatal("FromStdImage never took a poisoned strip")
	}
}

func TestFromStdImageRejects(t *testing.T) {
	for name, tc := range map[string]struct {
		src  image.Image
		opts Options
	}{
		"nil":          {nil, Options{}},
		"empty":        {image.NewRGBA(image.Rect(3, 5, 3, 9)), Options{}},
		"quality 101":  {image.NewRGBA(image.Rect(0, 0, 8, 8)), Options{Quality: 101}},
		"quality -1":   {image.NewRGBA(image.Rect(0, 0, 8, 8)), Options{Quality: -1}},
		"zero-row ycc": {image.NewYCbCr(image.Rect(0, 0, 8, 0), image.YCbCrSubsampleRatio420), Options{}},
	} {
		if _, err := FromStdImage(tc.src, tc.opts); err == nil {
			t.Errorf("%s: FromStdImage returned no error", name)
		}
	}
}
