package jpegc

import (
	"bytes"
	"image"
	"testing"
)

// subsampledBenchJPEG encodes a textured 512x384 4:2:0 stream with the
// stdlib encoder (the only pure-stdlib source of genuinely subsampled
// input).
func subsampledBenchJPEG(tb testing.TB) []byte {
	tb.Helper()
	return stdlibYCbCr(tb, 512, 384, image.YCbCrSubsampleRatio420)
}

// BenchmarkDecodeNative420 measures the native-subsampling decode path on a
// 4:2:0 stream: chroma stays at quarter resolution, so the coefficient
// working set is half the normalized one (coeff-bytes/op reports it;
// TestNative420CoeffBytes bounds the reduction).
func BenchmarkDecodeNative420(b *testing.B) {
	data := subsampledBenchJPEG(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	var coeffBytes int
	for i := 0; i < b.N; i++ {
		img, err := Decode(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		coeffBytes = img.CoeffBytes()
		img.Recycle()
	}
	b.ReportMetric(float64(coeffBytes), "coeff-bytes/op")
}

// BenchmarkDecodeNormalized420 is the legacy pipeline on the same stream:
// decode plus 4:4:4 normalization (chroma dequantized, upsampled and
// re-quantized at full resolution). Both its time and its coefficient
// working set are what the native path saves.
func BenchmarkDecodeNormalized420(b *testing.B) {
	data := subsampledBenchJPEG(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	var coeffBytes int
	for i := 0; i < b.N; i++ {
		img, err := Decode(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		norm, err := img.Normalize444()
		if err != nil {
			b.Fatal(err)
		}
		coeffBytes = norm.CoeffBytes()
		img.Recycle()
	}
	b.ReportMetric(float64(coeffBytes), "coeff-bytes/op")
}

// minNative420Saving is how many times fewer coefficient bytes the native
// 4:2:0 decode must hold than the 4:4:4-normalized pipeline. It is 2.0x on
// the 512x384 fixture (1,179,648 vs 2,359,296 bytes).
const minNative420Saving = 1.5

// TestNative420CoeffBytes bounds the coefficient working set of the two
// decode paths BenchmarkDecodeNative420 and BenchmarkDecodeNormalized420
// measure, on the same stream. Byte counts are deterministic, so the bound
// runs everywhere, the race detector included.
func TestNative420CoeffBytes(t *testing.T) {
	img, err := Decode(bytes.NewReader(subsampledBenchJPEG(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer img.Recycle()
	norm, err := img.Normalize444()
	if err != nil {
		t.Fatal(err)
	}
	native, normalized := img.CoeffBytes(), norm.CoeffBytes()
	t.Logf("coefficient bytes: native %d, normalized %d", native, normalized)
	if float64(normalized) < minNative420Saving*float64(native) {
		t.Fatalf("native 4:2:0 holds %d coefficient bytes vs %d normalized, want >= %.1fx fewer",
			native, normalized, minNative420Saving)
	}
}
