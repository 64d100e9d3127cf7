package jpegc

import (
	"bytes"
	"image"
	"math/rand"
	"testing"

	"puppies/internal/dataset"
	"puppies/internal/dct"
	"puppies/internal/imgplane"
)

// The *Share benchmarks run the codec kernels on the input of perfbench's
// share workload: the first 896x592 Caltech face render of seed 1, 8-bit
// quantized and imported the way puppies.Protect imports it, at the default
// quality. Their ns/op therefore add up against that workload's per-layer
// trace, unlike the random-coefficient benchmarks, whose dense blocks hide
// the cost of the sparse ones natural images produce.

// shareStd returns the share workload's first render as the stdlib image
// perfbench hands to puppies.Protect (an *image.RGBA).
func shareStd(tb testing.TB) image.Image {
	tb.Helper()
	g, err := dataset.NewGenerator(dataset.Caltech, 1)
	if err != nil {
		tb.Fatal(err)
	}
	for idx := 0; idx < 100; idx++ {
		item := g.Item(idx)
		for _, a := range item.Annotations {
			if a.Class == dataset.ClassFace {
				return item.Image.Quantize8().ToStdImage()
			}
		}
	}
	tb.Fatal("no Caltech render with a face")
	return nil
}

// shareRender returns the share workload's first render as planar YUV.
func shareRender(tb testing.TB) *imgplane.Image {
	tb.Helper()
	planar, err := imgplane.FromStdImage(shareStd(tb))
	if err != nil {
		tb.Fatal(err)
	}
	return planar
}

// shareImage returns the share render's coefficient image and logs its
// nonzero-AC share, the sparsity the branch-free kernels are built for.
func shareImage(b *testing.B) *Image {
	b.Helper()
	img, err := FromPlanar(shareRender(b), Options{})
	if err != nil {
		b.Fatal(err)
	}
	var nonzero, total int
	for ci := range img.Comps {
		for bi := range img.Comps[ci].Blocks {
			for _, v := range img.Comps[ci].Blocks[bi][1:] {
				if v != 0 {
					nonzero++
				}
			}
			total += dct.BlockLen - 1
		}
	}
	b.Logf("share render %dx%d: %.1f%% of AC coefficients nonzero", img.W, img.H, 100*float64(nonzero)/float64(total))
	return img
}

func BenchmarkFromPlanarShare(b *testing.B) {
	planar := shareRender(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromPlanar(planar, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFromStdImageShare is the sender's import: the share render,
// an *image.RGBA, straight to coefficients through the strip path. Each
// image is recycled, as puppies.Protect and EncodeJPEG recycle theirs.
func BenchmarkFromStdImageShare(b *testing.B) {
	src := shareStd(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img, err := FromStdImage(src, Options{})
		if err != nil {
			b.Fatal(err)
		}
		img.Recycle()
	}
}

// BenchmarkImportFromPlanarShare is BenchmarkFromStdImageShare's two-step
// comparand: full-frame planes (imgplane.FromStdImage), then FromPlanar,
// recycling the coefficient image the same way.
func BenchmarkImportFromPlanarShare(b *testing.B) {
	src := shareStd(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		planar, err := imgplane.FromStdImage(src)
		if err != nil {
			b.Fatal(err)
		}
		img, err := FromPlanar(planar, Options{})
		if err != nil {
			b.Fatal(err)
		}
		img.Recycle()
	}
}

func BenchmarkEncodeOptimizedShare(b *testing.B) {
	img := shareImage(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var cw countingWriter
		if err := img.Encode(&cw, EncodeOptions{Tables: TablesOptimized}); err != nil {
			b.Fatal(err)
		}
	}
}

// The Mask benchmarks time the encoder's nonzero-mask pass alone on three
// layouts of the share render's size: the render itself, whose
// high-frequency rows are almost all zero; dense blocks, every AC random
// over the baseline range (a PuPPIeS-N ROI); and blocks whose rows are
// each zero or dense at random, so the pass's per-row branch mispredicts.
func BenchmarkMaskShare(b *testing.B) {
	benchMask(b, shareImage(b))
}

func BenchmarkMaskDense(b *testing.B) {
	benchMask(b, denseImage(rand.New(rand.NewSource(31)), 896, 592, 3, 1, 1))
}

func BenchmarkMaskHostileRows(b *testing.B) {
	rng := rand.New(rand.NewSource(37))
	img := denseImage(rng, 896, 592, 3, 1, 1)
	for ci := range img.Comps {
		for bi := range img.Comps[ci].Blocks {
			blk := &img.Comps[ci].Blocks[bi]
			for r := 0; r < dct.BlockSize; r++ {
				if rng.Intn(2) == 0 {
					clear(blk[r*dct.BlockSize:][:dct.BlockSize])
				}
			}
		}
	}
	benchMask(b, img)
}

func benchMask(b *testing.B, img *Image) {
	slab := make([]uint64, img.blockCount())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := img.nonzeroMasks(slab); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeShare(b *testing.B) {
	benchDecodeShare(b, false)
}

// BenchmarkDecodeShareRecycled recycles each decoded image, as the
// production decoders that discard or finish with their image do (upload
// validation, the facade's receivers), so the grids come from the slab
// pool instead of being freshly allocated and zeroed by the runtime.
func BenchmarkDecodeShareRecycled(b *testing.B) {
	benchDecodeShare(b, true)
}

func benchDecodeShare(b *testing.B, recycle bool) {
	img := shareImage(b)
	var buf bytes.Buffer
	if err := img.Encode(&buf, EncodeOptions{Tables: TablesOptimized}); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := Decode(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if recycle {
			out.Recycle()
		}
	}
}
