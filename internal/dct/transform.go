package dct

import "math"

// cosTable[u][x] = cos((2x+1) * u * pi / 16), the separable DCT-II basis.
var cosTable [BlockSize][BlockSize]float64

// alpha[u] is the DCT normalization factor: 1/sqrt(2) for u=0, 1 otherwise.
var alpha [BlockSize]float64

func init() {
	for u := 0; u < BlockSize; u++ {
		for x := 0; x < BlockSize; x++ {
			cosTable[u][x] = math.Cos(float64(2*x+1) * float64(u) * math.Pi / 16)
		}
	}
	alpha[0] = 1 / math.Sqrt2
	for u := 1; u < BlockSize; u++ {
		alpha[u] = 1
	}
}

// Forward computes the two-dimensional type-II DCT of an 8x8 spatial block
// using the AAN fast kernel (aan.go). The input samples are expected to be
// level-shifted (e.g. pixel-128 for 8-bit samples); the output is the raw
// (unquantized) coefficient block, equal to ForwardReference up to float
// rounding (~1e-12 over the 8-bit input domain).
func Forward(spatial *FloatBlock) FloatBlock {
	out := *spatial
	fdctAAN(&out)
	for i := 0; i < BlockLen; i++ {
		out[i] *= forwardScale[i]
	}
	return out
}

// Inverse computes the two-dimensional inverse DCT (type-III) using the AAN
// fast kernel, mapping a raw coefficient block back to level-shifted spatial
// samples. Equal to InverseReference up to float rounding.
func Inverse(coeff *FloatBlock) FloatBlock {
	var in FloatBlock
	for i := 0; i < BlockLen; i++ {
		in[i] = coeff[i] * inverseScale[i]
	}
	idctAAN(&in)
	return in
}

// ForwardReference is the naive separable O(8^3) DCT kept as the
// equivalence oracle for the fast kernel (rows, then columns, explicit
// basis dot products).
func ForwardReference(spatial *FloatBlock) FloatBlock {
	var tmp, out FloatBlock
	for r := 0; r < BlockSize; r++ {
		for u := 0; u < BlockSize; u++ {
			var sum float64
			for x := 0; x < BlockSize; x++ {
				sum += spatial[r*BlockSize+x] * cosTable[u][x]
			}
			tmp[r*BlockSize+u] = sum * alpha[u] / 2
		}
	}
	for c := 0; c < BlockSize; c++ {
		for v := 0; v < BlockSize; v++ {
			var sum float64
			for y := 0; y < BlockSize; y++ {
				sum += tmp[y*BlockSize+c] * cosTable[v][y]
			}
			out[v*BlockSize+c] = sum * alpha[v] / 2
		}
	}
	return out
}

// InverseReference is the naive separable inverse DCT kept as the
// equivalence oracle for the fast kernel.
func InverseReference(coeff *FloatBlock) FloatBlock {
	var tmp, out FloatBlock
	for c := 0; c < BlockSize; c++ {
		for y := 0; y < BlockSize; y++ {
			var sum float64
			for v := 0; v < BlockSize; v++ {
				sum += alpha[v] * coeff[v*BlockSize+c] * cosTable[v][y]
			}
			tmp[y*BlockSize+c] = sum / 2
		}
	}
	for r := 0; r < BlockSize; r++ {
		for x := 0; x < BlockSize; x++ {
			var sum float64
			for u := 0; u < BlockSize; u++ {
				sum += alpha[u] * tmp[r*BlockSize+u] * cosTable[u][x]
			}
			out[r*BlockSize+x] = sum / 2
		}
	}
	return out
}

// ForwardQuantized performs forward DCT followed by quantization with the
// given table, producing a block bit-identical to
// ForwardQuantizedReference(spatial, q): the DC in the JPEG coefficient
// range [CoeffMin, CoeffMax], every AC in the baseline range
// [ACMin, CoeffMax]. The AC floor matters only outside the 8-bit input
// domain (unclamped planes from pixel-domain edits). It prepares the table
// on every call; a caller quantizing many blocks with one table holds a
// ForwardQuantizer instead.
func ForwardQuantized(spatial *FloatBlock, q *QuantTable) Block {
	fq := NewForwardQuantizer(q)
	var out Block
	fq.Quantize(&out, spatial)
	return out
}

// ForwardQuantizedReference is the pre-AAN quantizing path (reference DCT
// then Quantize, with the ACs floored at ACMin), kept for equivalence
// testing.
func ForwardQuantizedReference(spatial *FloatBlock, q *QuantTable) Block {
	raw := ForwardReference(spatial)
	out := Quantize(&raw, q)
	for i := 1; i < BlockLen; i++ {
		out[i] = max(out[i], ACMin)
	}
	return out
}

// InverseQuantized dequantizes a coefficient block with the given table and
// applies the inverse DCT, producing level-shifted spatial samples. The
// dequantization step sizes are folded into the AAN input scaling.
func InverseQuantized(b *Block, q *QuantTable) FloatBlock {
	var in FloatBlock
	for i := 0; i < BlockLen; i++ {
		in[i] = float64(b[i]) * (float64(q[i]) * inverseScale[i])
	}
	idctAAN(&in)
	return in
}

// InverseQuantizedReference is the pre-AAN dequantizing path (Dequantize
// then reference inverse DCT), kept for equivalence testing.
func InverseQuantizedReference(b *Block, q *QuantTable) FloatBlock {
	raw := Dequantize(b, q)
	return InverseReference(&raw)
}
