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

// TestForwardQuantizedACFloor pins the baseline AC floor. 8-bit input
// never drives an AC to -1024, but the unclamped planes pixel-domain edits
// quantize can: there every AC that rounds to -1024 or below comes out as
// ACMin, while the DC still reaches CoeffMin. The block is
// v(x) = base - x0 for columns 0-3 and base + x0 for columns 4-7 at step 1,
// which puts the (0,1) AC near -7.25*x0 and the DC at 8*base.
func TestForwardQuantizedACFloor(t *testing.T) {
	var q QuantTable
	for i := range q {
		q[i] = 1
	}
	floored := 0
	for _, base := range []float64{-128, -200} {
		for x0 := 100.0; x0 <= 300; x0 += 0.25 {
			var in FloatBlock
			for i := range in {
				in[i] = base - x0
				if i%BlockSize >= BlockSize/2 {
					in[i] = base + x0
				}
			}
			fast := ForwardQuantized(&in, &q)
			if ref := ForwardQuantizedReference(&in, &q); fast != ref {
				t.Fatalf("base %v, step %v: fast\n%sreference\n%s", base, x0, fast.String(), ref.String())
			}
			if fast[0] != CoeffMin {
				t.Fatalf("base %v, step %v: DC %d, want %d", base, x0, fast[0], CoeffMin)
			}
			for i, v := range fast[1:] {
				if v < ACMin {
					t.Fatalf("base %v, step %v: AC[%d] = %d below %d", base, x0, i+1, v, ACMin)
				}
			}
			raw := ForwardReference(&in)
			if math.Round(raw[1]) <= CoeffMin {
				if fast[1] != ACMin {
					t.Fatalf("base %v, step %v: AC[1] %d, want %d", base, x0, fast[1], ACMin)
				}
				floored++
			}
		}
	}
	if floored == 0 {
		t.Fatal("no block rounded an AC to -1024 or below")
	}
}

// TestFastForwardQuantizedMultiBoundary holds the boundary fallback to the
// reference on blocks where it fires for several coefficients at once.
// With s(x) = +1 on columns {0,3,4,7} and -1 elsewhere, the block
// a + d*s(x) + e*s(y) + f*s(x)*s(y) has the rational coefficients 8a (DC),
// 8d at (0,4), 8e at (4,0) and 8f at (4,4), so a step of 16 puts each odd
// one exactly on a round-half boundary. d alone is a two-level stripe;
// d = e = f = 0 is a flat block.
func TestFastForwardQuantizedMultiBoundary(t *testing.T) {
	s := [BlockSize]float64{1, -1, -1, 1, 1, -1, -1, 1}
	tables := []QuantTable{}
	for _, step := range []uint16{16, 48} {
		var q QuantTable
		for i := range q {
			q[i] = step
		}
		tables = append(tables, q)
	}
	q50, err := StdLuminanceQuant.ScaleQuality(50)
	if err != nil {
		t.Fatal(err)
	}
	tables = append(tables, q50)
	maxNear := 0
	for ti := range tables {
		q := &tables[ti]
		fq := NewForwardQuantizer(q)
		for a := -61.0; a <= 61; a += 2 {
			for _, def := range [][3]float64{{0, 0, 0}, {21, 0, 0}, {0, 21, 0}, {3, 0, 0}, {3, 5, 0}, {3, 5, 7}, {-9, 15, -21}, {33, -3, 1}} {
				var in FloatBlock
				for y := 0; y < BlockSize; y++ {
					for x := 0; x < BlockSize; x++ {
						in[y*BlockSize+x] = a + def[0]*s[x] + def[1]*s[y] + def[2]*s[x]*s[y]
					}
				}
				fast := ForwardQuantized(&in, q)
				if ref := ForwardQuantizedReference(&in, q); fast != ref {
					t.Fatalf("table %d, a %v, d/e/f %v: fast\n%sreference\n%s", ti, a, def, fast.String(), ref.String())
				}
				scaled := in
				fdctAAN(&scaled)
				near := 0
				for i, v := range scaled {
					p := v * fq.mult[i]
					if math.Abs(p-math.Round(p)) > 0.5-quantBoundaryEps {
						near++
					}
				}
				maxNear = max(maxNear, near)
			}
		}
	}
	if maxNear < 4 {
		t.Fatalf("at most %d coefficients of a block sat on a boundary, want blocks with 4", maxNear)
	}
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

// quantSink receives BenchmarkForwardQuantized's output, so the measured
// call cannot be removed.
var quantSink Block

// BenchmarkForwardQuantized times the quantizer kernel alone: the table
// is prepared once, outside the loop.
func BenchmarkForwardQuantized(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	in := randomSpatial(rng)
	q := StdLuminanceQuant
	fq := NewForwardQuantizer(&q)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fq.Quantize(&quantSink, &in)
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
