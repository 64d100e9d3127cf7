// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark runs the corresponding experiment (internal/experiments)
// and reports the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation. DESIGN.md §3 maps benchmarks to paper
// artifacts; EXPERIMENTS.md records paper-vs-measured values. Use
// cmd/experiments for the full formatted tables.
package puppies_test

import (
	"image"
	"math"
	"testing"

	"puppies"
	"puppies/internal/benchgate"
	"puppies/internal/experiments"
	"puppies/internal/keys"
	"puppies/internal/transform"
)

// benchCfg keeps benchmark iterations affordable; cmd/experiments -full
// runs paper-scale corpora.
var benchCfg = experiments.Config{Seed: 1, PascalN: 4, InriaN: 1, CaltechN: 3}

func BenchmarkTable1Capabilities(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Table1(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		pup := rows[len(rows)-1]
		if !pup.Scaling || !pup.Cropping || !pup.Compression || !pup.Rotation {
			b.Fatal("PuPPIeS capability regression")
		}
	}
}

func BenchmarkTable2PerturbedSize(b *testing.B) {
	b.ReportAllocs()
	var last []experiments.Table2Row
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Table2(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	if len(last) == 3 {
		b.ReportMetric(last[0].Summary.Mean, "B-mean-ratio")
		b.ReportMetric(last[1].Summary.Mean, "C-mean-ratio")
		b.ReportMetric(last[2].Summary.Mean, "Z-mean-ratio")
	}
}

func BenchmarkTable5EncDecTime(b *testing.B) {
	b.ReportAllocs()
	var last []experiments.Table5Row
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Table5(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	if len(last) == 2 {
		b.ReportMetric(last[0].Millis.Mean, "inria-ms")
		b.ReportMetric(last[1].Millis.Mean, "pascal-ms")
	}
}

func BenchmarkFig2RetrievalUsability(b *testing.B) {
	b.ReportAllocs()
	var last *experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Fig2(experiments.Config{Seed: 1, PascalN: 10})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		b.ReportMetric(last.PartialOverlap10.Mean, "partial-overlap10")
		b.ReportMetric(last.FullOverlap10.Mean, "full-overlap10")
	}
}

func BenchmarkFig4ScalingRecovery(b *testing.B) {
	b.ReportAllocs()
	var last *experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Fig4(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		b.ReportMetric(last.PuppiesPSNR.Mean, "puppies-psnr-dB")
		b.ReportMetric(last.P3PSNR.Mean, "p3-psnr-dB")
	}
}

func BenchmarkFig11PrivatePartSize(b *testing.B) {
	b.ReportAllocs()
	var last *experiments.Fig11Result
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Fig11(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		b.ReportMetric(last.P3PascalMean, "p3-pascal-bytes")
		b.ReportMetric(last.P3InriaMean, "p3-inria-bytes")
		b.ReportMetric(float64(last.CrossoverPascal), "crossover-matrices")
	}
}

func BenchmarkFig16ScaleRoundTrip(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Fig16(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.RotationExact != res.N || res.ScalingExact != res.N {
			b.Fatal("round trip regression")
		}
	}
}

func BenchmarkFig17PrivacyVsSize(b *testing.B) {
	b.ReportAllocs()
	var last []experiments.Fig17Row
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig17(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	for _, r := range last {
		if r.Corpus == "pascal" && r.Scheme == "PuPPIeS-Zero" {
			b.ReportMetric(r.Summary.Mean, "pascal-Z-"+string(r.Level)+"-ratio")
		}
	}
}

func BenchmarkFig18PublicVsROI(b *testing.B) {
	b.ReportAllocs()
	var last []experiments.Fig18Row
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig18(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	for _, r := range last {
		if r.Scheme == "PuPPIeS-Zero" && (r.ROIPct == 20 || r.ROIPct == 100) {
			b.ReportMetric(r.Summary.Mean, "Z-roi"+itoa(r.ROIPct)+"-ratio")
		}
	}
}

func BenchmarkFig20SIFTAttack(b *testing.B) {
	b.ReportAllocs()
	var last *experiments.Fig20Result
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Fig20(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		b.ReportMetric(last.MeanOriginalFeatures, "orig-features")
		b.ReportMetric(last.MeanMatchesPuppies, "puppies-matches")
		b.ReportMetric(last.MeanMatchesP3, "p3-matches")
	}
}

func BenchmarkFig21EdgeAttack(b *testing.B) {
	b.ReportAllocs()
	var last *experiments.Fig21Result
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Fig21(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil && len(last.OverlapCDFPuppies) > 0 {
		b.ReportMetric(last.OverlapCDFPuppies[len(last.OverlapCDFPuppies)-1].X, "puppies-max-edge-overlap")
	}
}

func BenchmarkFig22FaceRecognition(b *testing.B) {
	b.ReportAllocs()
	var last *experiments.Fig22Result
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Fig22(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil && len(last.RatioPuppies) >= 10 {
		b.ReportMetric(last.RatioPuppies[9], "puppies-rank10-ratio")
		b.ReportMetric(last.RatioP3[9], "p3-rank10-ratio")
		b.ReportMetric(last.RatioClean[9], "clean-rank10-ratio")
	}
}

func BenchmarkFig23CorrelationAttacks(b *testing.B) {
	b.ReportAllocs()
	var last []experiments.Fig23Result
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Fig23(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, r := range last {
		if r.Attack == "matrix inference" {
			b.ReportMetric(r.PSNR, "matrix-inference-psnr-dB")
		}
	}
}

func BenchmarkFigFaceDetectionAttack(b *testing.B) {
	b.ReportAllocs()
	var last *experiments.FaceDetectionResult
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.FaceDetection(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		b.ReportMetric(float64(last.DetectedOriginal), "faces-original")
		b.ReportMetric(float64(last.DetectedPuppiesZ), "faces-puppiesZ")
		b.ReportMetric(float64(last.DetectedP3), "faces-p3")
	}
}

func BenchmarkROIDetection(b *testing.B) {
	b.ReportAllocs()
	var last *experiments.ROITimingResult
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.ROITiming(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		b.ReportMetric(last.TotalMillis.Mean, "recommend-ms")
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkProtectRecoverPerMP measures the end-to-end protect + recover
// pipeline on a one-megapixel image, so ns/op reads directly as
// nanoseconds per megapixel.
func BenchmarkProtectRecoverPerMP(b *testing.B) {
	b.ReportAllocs()
	src := image.NewRGBA(image.Rect(0, 0, 1024, 1024))
	for y := 0; y < 1024; y++ {
		for x := 0; x < 1024; x++ {
			i := src.PixOffset(x, y)
			src.Pix[i+0] = uint8(128 + 90*math.Sin(float64(x)/11)*math.Cos(float64(y)/7))
			src.Pix[i+1] = uint8(128 + 70*math.Sin(float64(x+y)/13))
			src.Pix[i+2] = uint8(128 + 50*math.Cos(float64(x-2*y)/17))
			src.Pix[i+3] = 255
		}
	}
	pair := keys.NewPairDeterministic(99)
	opts := puppies.ProtectOptions{
		Variant: puppies.VariantZ,
		Regions: []puppies.Rect{{X: 128, Y: 128, W: 512, H: 512}},
		Keys:    []*puppies.KeyPair{pair},
	}
	b.SetBytes(1024 * 1024 * 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := puppies.Protect(src, opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := puppies.UnprotectJPEG(p.JPEG, p.Params, p.Keys); err != nil {
			b.Fatal(err)
		}
	}
}

// maxProtectRecoverAllocs is the allocation budget for one megapixel
// protect + recover. The pipeline measures 929-962 allocs/op on a 2-vCPU
// x86-64 host once image conversion stays on the typed Pix-slice paths;
// the headroom is for worker-count and Go-version variance, while the
// per-pixel color.Color regression this guards against is a
// six-order-of-magnitude jump.
const maxProtectRecoverAllocs = 2500

// TestProtectRecoverAllocBudget runs BenchmarkProtectRecoverPerMP and holds
// it to maxProtectRecoverAllocs. It uses testing.Benchmark rather than
// testing.AllocsPerRun, which forces GOMAXPROCS=1 and so changes the
// worker count the pipeline allocates for.
func TestProtectRecoverAllocBudget(t *testing.T) {
	res := benchgate.Best(t, 1, BenchmarkProtectRecoverPerMP)[0]
	t.Logf("protect+recover at 1 MP: %d allocs/op", res.AllocsPerOp())
	if got := res.AllocsPerOp(); got > maxProtectRecoverAllocs {
		t.Fatalf("protect+recover at 1 MP: %d allocs/op, budget %d", got, maxProtectRecoverAllocs)
	}
}

// BenchmarkPSPRecompress drives the full entropy path end-to-end the way a
// PSP does on every shared image: decode the protected JPEG, requantize,
// and re-encode with per-image optimized tables. This is the path the
// LUT/word-I/O fast path (DESIGN.md §11) accelerates.
func BenchmarkPSPRecompress(b *testing.B) {
	b.ReportAllocs()
	src := image.NewRGBA(image.Rect(0, 0, 512, 512))
	for y := 0; y < 512; y++ {
		for x := 0; x < 512; x++ {
			i := src.PixOffset(x, y)
			src.Pix[i+0] = uint8(128 + 90*math.Sin(float64(x)/11)*math.Cos(float64(y)/7))
			src.Pix[i+1] = uint8(128 + 70*math.Sin(float64(x+y)/13))
			src.Pix[i+2] = uint8(128 + 50*math.Cos(float64(x-2*y)/17))
			src.Pix[i+3] = 255
		}
	}
	pair := keys.NewPairDeterministic(41)
	p, err := puppies.Protect(src, puppies.ProtectOptions{
		Variant: puppies.VariantZ,
		Regions: []puppies.Rect{{X: 64, Y: 64, W: 256, H: 256}},
		Keys:    []*puppies.KeyPair{pair},
	})
	if err != nil {
		b.Fatal(err)
	}
	spec := puppies.TransformSpec{Op: transform.OpCompress, Quality: 60}
	b.SetBytes(int64(len(p.JPEG)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := puppies.PSPTransform(p.JPEG, spec); err != nil {
			b.Fatal(err)
		}
	}
}
