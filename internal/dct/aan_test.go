package dct

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// quickSpatial draws a level-shifted 8-bit spatial block (the JPEG forward
// input domain) from testing/quick's rand source.
func quickSpatial(rng *rand.Rand) FloatBlock {
	var b FloatBlock
	for i := range b {
		b[i] = float64(rng.Intn(256) - 128)
	}
	return b
}

// quickCoeffBlock draws a quantized coefficient block over the JPEG
// coefficient range.
func quickCoeffBlock(rng *rand.Rand) Block {
	var b Block
	for i := range b {
		b[i] = int32(rng.Intn(CoeffRange)) + CoeffMin
	}
	return b
}

// quickQuant draws a quality-scaled standard table, covering the step-size
// range the codec actually uses.
func quickQuant(rng *rand.Rand) QuantTable {
	base := &StdLuminanceQuant
	if rng.Intn(2) == 1 {
		base = &StdChrominanceQuant
	}
	q, err := base.ScaleQuality(1 + rng.Intn(100))
	if err != nil {
		panic(err)
	}
	return q
}

func TestFastForwardMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := quickSpatial(rng)
		fast := Forward(&in)
		ref := ForwardReference(&in)
		for i := range fast {
			if math.Abs(fast[i]-ref[i]) > 1e-9 {
				t.Logf("coeff %d: fast %v ref %v", i, fast[i], ref[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestFastInverseMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var in FloatBlock
		for i := range in {
			// Raw (dequantized) coefficients span roughly ±CoeffRange*255.
			in[i] = float64(rng.Intn(2*CoeffRange)-CoeffRange) * float64(1+rng.Intn(255))
		}
		fast := Inverse(&in)
		ref := InverseReference(&in)
		for i := range fast {
			if math.Abs(fast[i]-ref[i]) > 1e-6 {
				t.Logf("sample %d: fast %v ref %v", i, fast[i], ref[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestFastForwardQuantizedBitIdentical is the acceptance property: over the
// JPEG input domain, the folded fast path quantizes to exactly the same
// integers as the reference path, for every quality-scaled table.
func TestFastForwardQuantizedBitIdentical(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := quickSpatial(rng)
		q := quickQuant(rng)
		fast := ForwardQuantized(&in, &q)
		ref := ForwardQuantizedReference(&in, &q)
		if fast != ref {
			t.Logf("quantized mismatch:\nfast:\n%sref:\n%s", fast.String(), ref.String())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestFastForwardQuantizedBitIdenticalFlatBlocks pins the adversarial case
// for the boundary fallback: constant blocks put the DC exactly on a
// round-half boundary for even step sizes (DC of a constant block v is 8v;
// 8v/16 = v/2 is a .5 boundary for every odd v), where the fast and
// reference float paths would otherwise be free to round apart.
func TestFastForwardQuantizedBitIdenticalFlatBlocks(t *testing.T) {
	for _, quality := range []int{10, 50, 75, 90} {
		q, err := StdLuminanceQuant.ScaleQuality(quality)
		if err != nil {
			t.Fatal(err)
		}
		for v := -128; v < 128; v++ {
			var in FloatBlock
			for i := range in {
				in[i] = float64(v)
			}
			fast := ForwardQuantized(&in, &q)
			ref := ForwardQuantizedReference(&in, &q)
			if fast != ref {
				t.Fatalf("quality %d, flat %d: fast DC %d, ref DC %d",
					quality, v, fast[0], ref[0])
			}
		}
	}
}

// FuzzForwardQuantized holds the prepared quantizer to the reference path
// on fuzzed 8-bit blocks (level-shifted integer pixels, as 8-bit renders
// produce) at every quality of both standard tables. The seeds are the
// flat odd-valued blocks, whose DC lands on or next to a round-half
// boundary; without the boundary fallback some of them round apart.
func FuzzForwardQuantized(f *testing.F) {
	for v := 1; v < 256; v += 2 {
		for _, quality := range []uint8{10, 50, 90} {
			f.Add(bytes.Repeat([]byte{byte(v)}, BlockLen), quality, false)
			f.Add(bytes.Repeat([]byte{byte(v)}, BlockLen), quality, true)
		}
	}
	f.Fuzz(func(t *testing.T, pix []byte, quality uint8, chroma bool) {
		if len(pix) < BlockLen {
			t.Skip("fewer than 64 pixels")
		}
		var in FloatBlock
		for i := range in {
			in[i] = float64(pix[i]) - 128
		}
		base := &StdLuminanceQuant
		if chroma {
			base = &StdChrominanceQuant
		}
		q, err := base.ScaleQuality(1 + int(quality)%100)
		if err != nil {
			t.Fatal(err)
		}
		fast := ForwardQuantized(&in, &q)
		ref := ForwardQuantizedReference(&in, &q)
		if fast != ref {
			t.Fatalf("quantized mismatch:\nfast:\n%sref:\n%s", fast.String(), ref.String())
		}
	})
}

func TestFastInverseQuantizedMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := quickCoeffBlock(rng)
		q := quickQuant(rng)
		fast := InverseQuantized(&b, &q)
		ref := InverseQuantizedReference(&b, &q)
		for i := range fast {
			if math.Abs(fast[i]-ref[i]) > 1e-6 {
				t.Logf("sample %d: fast %v ref %v", i, fast[i], ref[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestFastRoundTripQuantized checks the quantize/dequantize round trip stays
// within half a step per coefficient on the fast path (the JPEG fidelity
// contract), mirroring TestQuantizeDequantizeBounded for the folded kernels.
func TestFastRoundTripQuantized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q := StdLuminanceQuant
	for trial := 0; trial < 50; trial++ {
		in := quickSpatial(rng)
		b := ForwardQuantized(&in, &q)
		back := InverseQuantized(&b, &q)
		fwd := Forward(&back)
		again := Quantize(&fwd, &q)
		if again != b {
			t.Fatalf("trial %d: fast quantized round trip unstable", trial)
		}
	}
}

func BenchmarkForwardReference(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	in := randomSpatial(rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ForwardReference(&in)
	}
}

func BenchmarkInverseReference(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	in := randomSpatial(rng)
	coeff := ForwardReference(&in)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = InverseReference(&coeff)
	}
}

func BenchmarkForwardQuantized(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	in := randomSpatial(rng)
	q := StdLuminanceQuant
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ForwardQuantized(&in, &q)
	}
}

func BenchmarkInverseQuantized(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	in := randomSpatial(rng)
	q := StdLuminanceQuant
	blk := ForwardQuantized(&in, &q)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = InverseQuantized(&blk, &q)
	}
}
