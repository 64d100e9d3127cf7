package core

import (
	"bytes"
	"math"
	"testing"

	"puppies/internal/imgplane"
	"puppies/internal/jpegc"
	"puppies/internal/keys"
	"puppies/internal/transform"
)

// Ablation benchmarks for the design decisions documented in DESIGN.md §4.
// Run with: go test -bench Ablation ./internal/core/

// BenchmarkAblationWrapPolicy quantifies what WrapRecorded buys: recovery
// fidelity after a pixel-domain PSP transform, with and without the wrap
// index.
func BenchmarkAblationWrapPolicy(b *testing.B) {
	b.ReportAllocs()
	base := benchNaturalImage(b, 128, 96)
	spec := transform.Spec{Op: transform.OpScale, FactorX: 0.5, FactorY: 0.5}
	roi := ROI{X: 0, Y: 0, W: 128, H: 96}

	measure := func(wrap WrapPolicy) float64 {
		sch, err := NewScheme(Params{Variant: VariantC, MR: 32, K: 8, Wrap: wrap})
		if err != nil {
			b.Fatal(err)
		}
		pair := keys.NewPairDeterministic(1)
		img := base.Clone()
		pd, _, err := sch.EncryptImage(img, []RegionAssignment{{ROI: roi, Pair: pair}})
		if err != nil {
			b.Fatal(err)
		}
		pertPix, err := img.ToPlanar()
		if err != nil {
			b.Fatal(err)
		}
		transformed, err := transform.ApplyPlanar(pertPix, spec)
		if err != nil {
			b.Fatal(err)
		}
		pdT := *pd
		pdT.Transform = spec
		got, err := ReconstructPixels(transformed, &pdT, map[string]*keys.Pair{pair.ID: pair})
		if err != nil {
			b.Fatal(err)
		}
		basePix, err := base.ToPlanar()
		if err != nil {
			b.Fatal(err)
		}
		want, err := transform.ApplyPlanar(basePix, spec)
		if err != nil {
			b.Fatal(err)
		}
		psnr, err := imgplane.ImagePSNR(got, want)
		if err != nil {
			b.Fatal(err)
		}
		if math.IsInf(psnr, 1) || psnr > 99 {
			psnr = 99
		}
		return psnr
	}

	var modular, recorded float64
	for i := 0; i < b.N; i++ {
		modular = measure(WrapModular)
		recorded = measure(WrapRecorded)
	}
	b.ReportMetric(modular, "modular-psnr-dB")
	b.ReportMetric(recorded, "recorded-psnr-dB")
}

// BenchmarkAblationHuffmanTables quantifies the PuPPIeS-C mechanism: the
// same perturbed image encoded with default Annex K tables vs per-image
// optimized tables.
func BenchmarkAblationHuffmanTables(b *testing.B) {
	b.ReportAllocs()
	base := benchNaturalImage(b, 128, 96)
	sch, err := NewScheme(Params{Variant: VariantC, MR: 32, K: 8})
	if err != nil {
		b.Fatal(err)
	}
	img := base.Clone()
	pair := keys.NewPairDeterministic(2)
	if _, _, err := sch.EncryptImage(img, []RegionAssignment{
		{ROI: ROI{X: 0, Y: 0, W: 128, H: 96}, Pair: pair},
	}); err != nil {
		b.Fatal(err)
	}
	origSize, err := base.EncodedSize(jpegc.EncodeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var defSize, optSize int64
	for i := 0; i < b.N; i++ {
		if defSize, err = img.EncodedSize(jpegc.EncodeOptions{Tables: jpegc.TablesDefault}); err != nil {
			b.Fatal(err)
		}
		if optSize, err = img.EncodedSize(jpegc.EncodeOptions{Tables: jpegc.TablesOptimized}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(defSize)/float64(origSize), "default-tables-ratio")
	b.ReportMetric(float64(optSize)/float64(origSize), "optimized-tables-ratio")
}

// BenchmarkAblationZeroSkip quantifies the -Z mechanism against -C on the
// same image: perturbed size plus public-parameter cost.
func BenchmarkAblationZeroSkip(b *testing.B) {
	b.ReportAllocs()
	base := benchNaturalImage(b, 128, 96)
	origSize, err := base.EncodedSize(jpegc.EncodeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	measure := func(v Variant) (float64, float64) {
		sch, err := NewScheme(Params{Variant: v, MR: 32, K: 8})
		if err != nil {
			b.Fatal(err)
		}
		img := base.Clone()
		pair := keys.NewPairDeterministic(3)
		pd, _, err := sch.EncryptImage(img, []RegionAssignment{
			{ROI: ROI{X: 0, Y: 0, W: 128, H: 96}, Pair: pair},
		})
		if err != nil {
			b.Fatal(err)
		}
		size, err := img.EncodedSize(jpegc.EncodeOptions{Tables: jpegc.TablesOptimized})
		if err != nil {
			b.Fatal(err)
		}
		return float64(size) / float64(origSize), float64(pd.ParamsSizeBytes())
	}
	var cRatio, zRatio, zParams float64
	for i := 0; i < b.N; i++ {
		cRatio, _ = measure(VariantC)
		zRatio, zParams = measure(VariantZ)
	}
	b.ReportMetric(cRatio, "C-image-ratio")
	b.ReportMetric(zRatio, "Z-image-ratio")
	b.ReportMetric(zParams, "Z-params-bytes")
}

// BenchmarkScanPathAllocs isolates the entropy scan path the PR 4 fast path
// targets: one optimized-tables encode (statistics pass + table build +
// scan write) and one decode of a perturbed image, with allocations as the
// headline number. Before the pooled zero-allocation rework this path cost
// ~14.7k allocs/op (BenchmarkAblationHuffmanTables then; README's
// performance table lists it).
func BenchmarkScanPathAllocs(b *testing.B) {
	base := benchNaturalImage(b, 128, 96)
	sch, err := NewScheme(Params{Variant: VariantC, MR: 32, K: 8})
	if err != nil {
		b.Fatal(err)
	}
	img := base.Clone()
	pair := keys.NewPairDeterministic(6)
	if _, _, err := sch.EncryptImage(img, []RegionAssignment{
		{ROI: ROI{X: 0, Y: 0, W: 128, H: 96}, Pair: pair},
	}); err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := img.Encode(&buf, jpegc.EncodeOptions{Tables: jpegc.TablesOptimized}); err != nil {
		b.Fatal(err)
	}
	encoded := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := img.EncodedSize(jpegc.EncodeOptions{Tables: jpegc.TablesOptimized}); err != nil {
			b.Fatal(err)
		}
		if _, err := jpegc.Decode(bytes.NewReader(encoded)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncryptThroughput measures raw perturbation speed (pixels/op
// reported via custom metric, Table V's core loop).
func BenchmarkEncryptThroughput(b *testing.B) {
	base := benchNaturalImage(b, 512, 384)
	sch, err := NewScheme(Params{Variant: VariantZ, MR: 32, K: 8})
	if err != nil {
		b.Fatal(err)
	}
	pair := keys.NewPairDeterministic(4)
	roi := ROI{X: 0, Y: 0, W: 512, H: 384}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img := base.Clone()
		if _, _, err := sch.EncryptImage(img, []RegionAssignment{{ROI: roi, Pair: pair}}); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(512 * 384 * 3)
}

// BenchmarkDecryptThroughput measures recovery speed.
func BenchmarkDecryptThroughput(b *testing.B) {
	base := benchNaturalImage(b, 512, 384)
	sch, err := NewScheme(Params{Variant: VariantZ, MR: 32, K: 8})
	if err != nil {
		b.Fatal(err)
	}
	pair := keys.NewPairDeterministic(5)
	roi := ROI{X: 0, Y: 0, W: 512, H: 384}
	img := base.Clone()
	pd, _, err := sch.EncryptImage(img, []RegionAssignment{{ROI: roi, Pair: pair}})
	if err != nil {
		b.Fatal(err)
	}
	pairs := map[string]*keys.Pair{pair.ID: pair}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work := img.Clone()
		if _, err := DecryptImage(work, pd, pairs); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(512 * 384 * 3)
}

// benchNaturalImage builds a natural-statistics coefficient image for
// benchmarks (mirrors naturalImage without *testing.T).
func benchNaturalImage(b *testing.B, w, h int) *jpegc.Image {
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
	img, err := jpegc.FromPlanar(planar, jpegc.Options{Quality: 75})
	if err != nil {
		b.Fatal(err)
	}
	return img
}
