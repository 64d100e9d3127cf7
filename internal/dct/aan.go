package dct

import "math"

// Fast scaled DCT/IDCT after Arai, Agui and Nakajima (AAN), the kernel
// behind libjpeg's float path. The 1-D butterfly computes the 8-point
// DCT-II up to a known per-frequency scale factor using 5 multiplications
// and 29 additions (vs 64 multiplications for the naive dot products), and
// the scale factors fold into quantization, so the quantizing entry points
// pay almost nothing to undo them.
//
// Scaling convention: with aan[0] = 1 and aan[k] = cos(k*pi/16)*sqrt(2),
// the 2-D butterfly output is S(r,c) * 8 * aan[r] * aan[c], where S is the
// orthonormal coefficient the reference implementation produces. The
// inverse butterfly expects S(r,c) * aan[r] * aan[c] / 8 and emits spatial
// samples directly.
//
// ForwardReference/InverseReference (transform.go) remain the equivalence
// oracle; TestFastForwardMatchesReference and friends pin the fast kernel
// to it, and ForwardQuantizer falls back to the reference basis for the
// rare coefficients that land within epsilon of a rounding boundary, making
// the quantized fast path bit-identical to the reference path by
// construction.

// AAN butterfly constants (cosines at multiples of pi/16).
const (
	aanC4     = 0.70710678118654752440 // cos(4*pi/16) = 1/sqrt(2)
	aanC2mC6  = 0.54119610014619698439 // cos(2*pi/16) - cos(6*pi/16)
	aanC2pC6  = 1.30656296487637652785 // cos(2*pi/16) + cos(6*pi/16)
	aanC6     = 0.38268343236508977173 // cos(6*pi/16)
	aanSqrt2  = 1.41421356237309504880 // sqrt(2)
	aan2C2    = 1.84775906502257351226 // 2*cos(2*pi/16)
	aanC2mC6i = 1.08239220029239396880 // 2*(cos(2*pi/16) - cos(6*pi/16))
	aanC2pC6i = 2.61312592975275305571 // 2*(cos(2*pi/16)+cos(6*pi/16))
)

// forwardScale[i] converts butterfly output at row-major index i to the
// orthonormal coefficient: S = out * forwardScale. inverseScale[i] converts
// an orthonormal coefficient to the inverse butterfly's expected input.
var forwardScale, inverseScale [BlockLen]float64

// quantFloor is the smallest value ForwardQuantizer.Quantize writes at each
// index: CoeffMin for the DC, the baseline floor ACMin for the ACs.
var quantFloor [BlockLen]int32

func init() {
	var aan [BlockSize]float64
	aan[0] = 1
	for k := 1; k < BlockSize; k++ {
		aan[k] = math.Cos(float64(k)*math.Pi/16) * math.Sqrt2
	}
	for r := 0; r < BlockSize; r++ {
		for c := 0; c < BlockSize; c++ {
			forwardScale[r*BlockSize+c] = 1 / (8 * aan[r] * aan[c])
			inverseScale[r*BlockSize+c] = aan[r] * aan[c] / 8
		}
	}
	for i := range quantFloor {
		quantFloor[i] = ACMin
	}
	quantFloor[0] = CoeffMin
}

// fdctRows runs the row pass of the AAN forward butterfly from src into
// dst, which may be src itself: each row is read whole before it is
// written.
func fdctRows(dst, src *FloatBlock) {
	for i := 0; i < BlockLen; i += BlockSize {
		tmp0 := src[i+0] + src[i+7]
		tmp7 := src[i+0] - src[i+7]
		tmp1 := src[i+1] + src[i+6]
		tmp6 := src[i+1] - src[i+6]
		tmp2 := src[i+2] + src[i+5]
		tmp5 := src[i+2] - src[i+5]
		tmp3 := src[i+3] + src[i+4]
		tmp4 := src[i+3] - src[i+4]

		// Even part.
		tmp10 := tmp0 + tmp3
		tmp13 := tmp0 - tmp3
		tmp11 := tmp1 + tmp2
		tmp12 := tmp1 - tmp2

		dst[i+0] = tmp10 + tmp11
		dst[i+4] = tmp10 - tmp11

		z1 := (tmp12 + tmp13) * aanC4
		dst[i+2] = tmp13 + z1
		dst[i+6] = tmp13 - z1

		// Odd part.
		tmp10 = tmp4 + tmp5
		tmp11 = tmp5 + tmp6
		tmp12 = tmp6 + tmp7

		z5 := (tmp10 - tmp12) * aanC6
		z2 := aanC2mC6*tmp10 + z5
		z4 := aanC2pC6*tmp12 + z5
		z3 := tmp11 * aanC4

		z11 := tmp7 + z3
		z13 := tmp7 - z3

		dst[i+5] = z13 + z2
		dst[i+3] = z13 - z2
		dst[i+1] = z11 + z4
		dst[i+7] = z11 - z4
	}
}

// fdctAAN runs the 2-D AAN forward butterfly in place: rows, then columns.
// Output is the scaled coefficient block (orthonormal * 8*aan[r]*aan[c]).
func fdctAAN(d *FloatBlock) {
	fdctRows(d, d)

	// Column pass.
	for i := 0; i < BlockSize; i++ {
		tmp0 := d[i+0*8] + d[i+7*8]
		tmp7 := d[i+0*8] - d[i+7*8]
		tmp1 := d[i+1*8] + d[i+6*8]
		tmp6 := d[i+1*8] - d[i+6*8]
		tmp2 := d[i+2*8] + d[i+5*8]
		tmp5 := d[i+2*8] - d[i+5*8]
		tmp3 := d[i+3*8] + d[i+4*8]
		tmp4 := d[i+3*8] - d[i+4*8]

		tmp10 := tmp0 + tmp3
		tmp13 := tmp0 - tmp3
		tmp11 := tmp1 + tmp2
		tmp12 := tmp1 - tmp2

		d[i+0*8] = tmp10 + tmp11
		d[i+4*8] = tmp10 - tmp11

		z1 := (tmp12 + tmp13) * aanC4
		d[i+2*8] = tmp13 + z1
		d[i+6*8] = tmp13 - z1

		tmp10 = tmp4 + tmp5
		tmp11 = tmp5 + tmp6
		tmp12 = tmp6 + tmp7

		z5 := (tmp10 - tmp12) * aanC6
		z2 := aanC2mC6*tmp10 + z5
		z4 := aanC2pC6*tmp12 + z5
		z3 := tmp11 * aanC4

		z11 := tmp7 + z3
		z13 := tmp7 - z3

		d[i+5*8] = z13 + z2
		d[i+3*8] = z13 - z2
		d[i+1*8] = z11 + z4
		d[i+7*8] = z11 - z4
	}
}

// idctAAN runs the 2-D AAN inverse butterfly in place. Input is the
// pre-scaled coefficient block (orthonormal * aan[r]*aan[c]/8); output is
// the spatial block.
func idctAAN(d *FloatBlock) {
	// Column pass.
	for i := 0; i < BlockSize; i++ {
		// Even part.
		tmp10 := d[i+0*8] + d[i+4*8]
		tmp11 := d[i+0*8] - d[i+4*8]

		tmp13 := d[i+2*8] + d[i+6*8]
		tmp12 := (d[i+2*8]-d[i+6*8])*aanSqrt2 - tmp13

		tmp0 := tmp10 + tmp13
		tmp3 := tmp10 - tmp13
		tmp1 := tmp11 + tmp12
		tmp2 := tmp11 - tmp12

		// Odd part.
		z13 := d[i+5*8] + d[i+3*8]
		z10 := d[i+5*8] - d[i+3*8]
		z11 := d[i+1*8] + d[i+7*8]
		z12 := d[i+1*8] - d[i+7*8]

		tmp7 := z11 + z13
		tmp11 = (z11 - z13) * aanSqrt2

		z5 := (z10 + z12) * aan2C2
		tmp10 = aanC2mC6i*z12 - z5
		tmp12 = -aanC2pC6i*z10 + z5

		tmp6 := tmp12 - tmp7
		tmp5 := tmp11 - tmp6
		tmp4 := tmp10 + tmp5

		d[i+0*8] = tmp0 + tmp7
		d[i+7*8] = tmp0 - tmp7
		d[i+1*8] = tmp1 + tmp6
		d[i+6*8] = tmp1 - tmp6
		d[i+2*8] = tmp2 + tmp5
		d[i+5*8] = tmp2 - tmp5
		d[i+4*8] = tmp3 + tmp4
		d[i+3*8] = tmp3 - tmp4
	}

	// Row pass.
	for i := 0; i < BlockLen; i += BlockSize {
		tmp10 := d[i+0] + d[i+4]
		tmp11 := d[i+0] - d[i+4]

		tmp13 := d[i+2] + d[i+6]
		tmp12 := (d[i+2]-d[i+6])*aanSqrt2 - tmp13

		tmp0 := tmp10 + tmp13
		tmp3 := tmp10 - tmp13
		tmp1 := tmp11 + tmp12
		tmp2 := tmp11 - tmp12

		z13 := d[i+5] + d[i+3]
		z10 := d[i+5] - d[i+3]
		z11 := d[i+1] + d[i+7]
		z12 := d[i+1] - d[i+7]

		tmp7 := z11 + z13
		tmp11 = (z11 - z13) * aanSqrt2

		z5 := (z10 + z12) * aan2C2
		tmp10 = aanC2mC6i*z12 - z5
		tmp12 = -aanC2pC6i*z10 + z5

		tmp6 := tmp12 - tmp7
		tmp5 := tmp11 - tmp6
		tmp4 := tmp10 + tmp5

		d[i+0] = tmp0 + tmp7
		d[i+7] = tmp0 - tmp7
		d[i+1] = tmp1 + tmp6
		d[i+6] = tmp1 - tmp6
		d[i+2] = tmp2 + tmp5
		d[i+5] = tmp2 - tmp5
		d[i+4] = tmp3 + tmp4
		d[i+3] = tmp3 - tmp4
	}
}

// quantBoundaryEps is the distance from a round-half boundary below which
// ForwardQuantizer defers to the reference basis. The fast and reference
// paths compute the same mathematical value to ~1e-11 absolute error over
// the JPEG input domain, so any disagreement in rounding requires the
// scaled value to sit within that distance of a boundary — far inside this
// epsilon. Deferring there makes the fast quantized output bit-identical
// to Quantize(ForwardReference(...)) by construction.
const quantBoundaryEps = 1e-6

// refCoefficient recomputes coefficient (v,c) of the forward DCT with
// exactly the reference implementation's operation order, so the fallback
// rounds the identical float64 the reference path would round.
func refCoefficient(spatial *FloatBlock, v, c int) float64 {
	var sum float64
	for y := 0; y < BlockSize; y++ {
		var row float64
		for x := 0; x < BlockSize; x++ {
			row += spatial[y*BlockSize+x] * cosTable[c][x]
		}
		sum += row * alpha[c] / 2 * cosTable[v][y]
	}
	return sum * alpha[v] / 2
}

// ForwardQuantizer is the forward DCT plus quantization for one table. It
// holds the table's folded multipliers forwardScale[i]/q[i], computed once,
// so quantizing a coefficient costs one multiply instead of a divide.
type ForwardQuantizer struct {
	q    QuantTable
	mult [BlockLen]float64
}

// NewForwardQuantizer prepares the folded multipliers of table q.
func NewForwardQuantizer(q *QuantTable) ForwardQuantizer {
	fq := ForwardQuantizer{q: *q}
	for i := range fq.mult {
		fq.mult[i] = forwardScale[i] / float64(q[i])
	}
	return fq
}

// Quantize runs the AAN butterfly on spatial and writes to dst each scaled
// output rounded to the nearest integer, half away from zero, and clamped
// to [quantFloor[i], CoeffMax]: the DC to the JPEG coefficient range, the
// ACs to the baseline range. dst is bit-identical to
// Quantize(ForwardReference(spatial), q) with the ACs floored at ACMin.
//
// The row pass runs out of place into a local block, and the column pass
// quantizes each output as it computes it, so the scaled block never goes
// back to memory. Natural blocks are sparse (most quantized ACs are zero,
// with float noise of either sign), so nothing branches per coefficient:
// quantRound rounds p to r, and the boundary test only ORs together the
// sign bits of quantBoundarySq - (p-r)^2, which go negative when p lies
// within quantBoundaryEps of a round-half boundary. When one does, once per
// block, quantizeNearBoundary recomputes those coefficients with the
// reference operation order.
func (fq *ForwardQuantizer) Quantize(dst *Block, spatial *FloatBlock) {
	var rows FloatBlock
	fdctRows(&rows, spatial)
	var near uint64
	for i := 0; i < BlockSize; i++ {
		tmp0 := rows[i+0*8] + rows[i+7*8]
		tmp7 := rows[i+0*8] - rows[i+7*8]
		tmp1 := rows[i+1*8] + rows[i+6*8]
		tmp6 := rows[i+1*8] - rows[i+6*8]
		tmp2 := rows[i+2*8] + rows[i+5*8]
		tmp5 := rows[i+2*8] - rows[i+5*8]
		tmp3 := rows[i+3*8] + rows[i+4*8]
		tmp4 := rows[i+3*8] - rows[i+4*8]

		tmp10 := tmp0 + tmp3
		tmp13 := tmp0 - tmp3
		tmp11 := tmp1 + tmp2
		tmp12 := tmp1 - tmp2

		near |= fq.put(dst, i+0*8, tmp10+tmp11)
		near |= fq.put(dst, i+4*8, tmp10-tmp11)

		z1 := (tmp12 + tmp13) * aanC4
		near |= fq.put(dst, i+2*8, tmp13+z1)
		near |= fq.put(dst, i+6*8, tmp13-z1)

		tmp10 = tmp4 + tmp5
		tmp11 = tmp5 + tmp6
		tmp12 = tmp6 + tmp7

		z5 := (tmp10 - tmp12) * aanC6
		z2 := aanC2mC6*tmp10 + z5
		z4 := aanC2pC6*tmp12 + z5
		z3 := tmp11 * aanC4

		z11 := tmp7 + z3
		z13 := tmp7 - z3

		near |= fq.put(dst, i+5*8, z13+z2)
		near |= fq.put(dst, i+3*8, z13-z2)
		near |= fq.put(dst, i+1*8, z11+z4)
		near |= fq.put(dst, i+7*8, z11-z4)
	}
	if near>>63 != 0 {
		fq.quantizeNearBoundary(dst, spatial)
	}
}

// quantRound is 1.5*2^52. For |x| < 2^51, x+quantRound lies in
// [2^52, 2^53), where consecutive float64 values are exactly 1 apart, so
// the sum is x rounded to the nearest integer (ties to even) and
// subtracting quantRound again is exact. Scaled coefficients of the JPEG
// input domain stay within about +-1024.
const quantRound = 0x1.8p52

// quantBoundarySq is (0.5-quantBoundaryEps)^2: |p-r| exceeds
// 0.5-quantBoundaryEps exactly when (p-r)^2 exceeds it, and squaring keeps
// the test in float registers, where math.Abs would not.
const quantBoundarySq = (0.5 - quantBoundaryEps) * (0.5 - quantBoundaryEps)

// put quantizes butterfly output s at index i into dst and returns a
// word whose sign bit is set when s*mult[i] lies within quantBoundaryEps
// of a round-half boundary.
//
// The compiler may fuse s*mult[i]+quantRound, s*mult[i]-r or
// quantBoundarySq-d*d into one FMA (arm64 does), skipping a product's own
// rounding. Either way r is an integer
// nearest to a value within a few ulps of the exact product, and the test
// reads |p-r| to within a few ulps, far inside quantBoundaryEps: a
// coefficient whose test does not fire is more than quantBoundaryEps from
// a half boundary, so r is also math.Round of the reference value, which
// differs from the product by ~1e-11.
func (fq *ForwardQuantizer) put(dst *Block, i int, s float64) uint64 {
	p := s * fq.mult[i]
	r := (p + quantRound) - quantRound
	dst[i] = min(max(int32(r), quantFloor[i]), CoeffMax)
	d := p - r
	return math.Float64bits(quantBoundarySq - d*d)
}

// quantizeNearBoundary recomputes, with the reference operation order and
// math.Round, each coefficient of dst whose scaled value lies within
// quantBoundaryEps of a round-half boundary. Quantize calls it for the rare
// block that has one (flat odd-valued blocks under an even step, say).
func (fq *ForwardQuantizer) quantizeNearBoundary(dst *Block, spatial *FloatBlock) {
	scaled := *spatial
	fdctAAN(&scaled)
	for i, s := range scaled {
		p := s * fq.mult[i]
		r := (p + quantRound) - quantRound
		if d := p - r; d*d > quantBoundarySq {
			m := int32(math.Round(refCoefficient(spatial, i/BlockSize, i%BlockSize) / float64(fq.q[i])))
			dst[i] = min(max(m, quantFloor[i]), CoeffMax)
		}
	}
}
