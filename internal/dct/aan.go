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
}

// fdctAAN runs the 2-D AAN forward butterfly in place: rows, then columns.
// Output is the scaled coefficient block (orthonormal * 8*aan[r]*aan[c]).
func fdctAAN(d *FloatBlock) {
	// Row pass.
	for i := 0; i < BlockLen; i += BlockSize {
		tmp0 := d[i+0] + d[i+7]
		tmp7 := d[i+0] - d[i+7]
		tmp1 := d[i+1] + d[i+6]
		tmp6 := d[i+1] - d[i+6]
		tmp2 := d[i+2] + d[i+5]
		tmp5 := d[i+2] - d[i+5]
		tmp3 := d[i+3] + d[i+4]
		tmp4 := d[i+3] - d[i+4]

		// Even part.
		tmp10 := tmp0 + tmp3
		tmp13 := tmp0 - tmp3
		tmp11 := tmp1 + tmp2
		tmp12 := tmp1 - tmp2

		d[i+0] = tmp10 + tmp11
		d[i+4] = tmp10 - tmp11

		z1 := (tmp12 + tmp13) * aanC4
		d[i+2] = tmp13 + z1
		d[i+6] = tmp13 - z1

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

		d[i+5] = z13 + z2
		d[i+3] = z13 - z2
		d[i+1] = z11 + z4
		d[i+7] = z11 - z4
	}

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
// to the JPEG coefficient range. dst is bit-identical to
// Quantize(ForwardReference(spatial), q).
//
// Natural blocks are sparse (most quantized ACs are zero, with float noise
// of either sign), so the rounding has no data-dependent branch: it
// truncates |p|+0.5 and puts the sign of p back with an xor/add. The one
// branch left, the boundary test on the fraction of |p|+0.5, is almost
// never taken; when it is, the coefficient is recomputed with the
// reference operation order.
func (fq *ForwardQuantizer) Quantize(dst *Block, spatial *FloatBlock) {
	scaled := *spatial
	fdctAAN(&scaled)
	for i := 0; i < BlockLen; i++ {
		p := scaled[i] * fq.mult[i]
		a := math.Abs(p) + 0.5
		m := int32(a)
		if d := a - float64(m); d < quantBoundaryEps || d > 1-quantBoundaryEps {
			m = int32(math.Round(refCoefficient(spatial, i/BlockSize, i%BlockSize) / float64(fq.q[i])))
		} else {
			s := int32(math.Float64bits(p) >> 63)
			m = (m ^ -s) + s
		}
		dst[i] = min(max(m, CoeffMin), CoeffMax)
	}
}
