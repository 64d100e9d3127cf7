// Package dct implements the 8x8 block mathematics underlying the JPEG
// baseline pipeline: the type-II discrete cosine transform and its inverse,
// zigzag ordering, and quantization with standard (Annex K) or quality-scaled
// tables.
//
// All of PuPPIeS operates on quantized DCT coefficient blocks; this package
// is the numeric substrate shared by the JPEG codec (internal/jpegc), the
// transform library (internal/transform) and the perturbation schemes
// (internal/core).
package dct

import "fmt"

// BlockSize is the side length of a JPEG coefficient block.
const BlockSize = 8

// BlockLen is the number of coefficients in one block.
const BlockLen = BlockSize * BlockSize

// Coefficient range mandated by the JPEG standard for 8-bit samples after
// level shift: quantized DCT coefficients occupy [-1024, 1023].
const (
	CoeffMin = -1024
	CoeffMax = 1023
	// ACMin is the smallest AC coefficient baseline Huffman coding can
	// represent: AC magnitude categories stop at 10 bits.
	ACMin = -1023
	// CoeffRange is the size of the coefficient value range (2048). PuPPIeS
	// perturbation arithmetic is carried out modulo this value.
	CoeffRange = CoeffMax - CoeffMin + 1
)

// Block is one 8x8 coefficient (or spatial-sample) block in row-major order.
// Index [r*8+c] addresses row r, column c. In coefficient blocks, index 0 is
// the DC component and indices 1..63 are the AC components.
type Block [BlockLen]int32

// FloatBlock holds intermediate full-precision values during the forward and
// inverse transforms.
type FloatBlock [BlockLen]float64

// DC returns the DC (mean) coefficient of the block.
func (b *Block) DC() int32 { return b[0] }

// Equal reports whether two blocks hold identical coefficients.
func (b *Block) Equal(o *Block) bool { return *b == *o }

// String renders the block as an 8x8 grid, for debugging and test failure
// messages.
func (b *Block) String() string {
	s := ""
	for r := 0; r < BlockSize; r++ {
		for c := 0; c < BlockSize; c++ {
			s += fmt.Sprintf("%6d ", b[r*BlockSize+c])
		}
		s += "\n"
	}
	return s
}

// Clamp limits every coefficient to the JPEG coefficient range. It returns
// the number of coefficients that were out of range.
func (b *Block) Clamp() int {
	n := 0
	for i, v := range b {
		if v < CoeffMin {
			b[i] = CoeffMin
			n++
		} else if v > CoeffMax {
			b[i] = CoeffMax
			n++
		}
	}
	return n
}

// ZigZag maps a zigzag scan position to its row-major block index, as defined
// by the JPEG standard (ISO/IEC 10918-1, Figure 5).
var ZigZag = [BlockLen]int{
	0, 1, 8, 16, 9, 2, 3, 10,
	17, 24, 32, 25, 18, 11, 4, 5,
	12, 19, 26, 33, 40, 48, 41, 34,
	27, 20, 13, 6, 7, 14, 21, 28,
	35, 42, 49, 56, 57, 50, 43, 36,
	29, 22, 15, 23, 30, 37, 44, 51,
	58, 59, 52, 45, 38, 31, 39, 46,
	53, 60, 61, 54, 47, 55, 62, 63,
}

// UnZigZag is the inverse of ZigZag: row-major index -> zigzag position.
var UnZigZag [BlockLen]int

func init() {
	for zz, nat := range ZigZag {
		UnZigZag[nat] = zz
	}
}

// ToZigZag reorders a row-major block into zigzag scan order.
func (b *Block) ToZigZag() Block {
	var out Block
	for zz := 0; zz < BlockLen; zz++ {
		out[zz] = b[ZigZag[zz]]
	}
	return out
}

// FromZigZag reorders a zigzag-ordered block back to row-major order.
func FromZigZag(zz *Block) Block {
	var out Block
	for i := 0; i < BlockLen; i++ {
		out[ZigZag[i]] = zz[i]
	}
	return out
}

// Transpose returns the matrix transpose of the block. Transposition is the
// coefficient-domain equivalent of mirroring a spatial block across its main
// diagonal and is a building block for lossless 90-degree rotations.
func (b *Block) Transpose() Block {
	var out Block
	for r := 0; r < BlockSize; r++ {
		for c := 0; c < BlockSize; c++ {
			out[c*BlockSize+r] = b[r*BlockSize+c]
		}
	}
	return out
}

// FlipH returns the coefficient block corresponding to flipping the spatial
// block horizontally: AC coefficients with odd horizontal frequency change
// sign (property of the DCT-II basis).
func (b *Block) FlipH() Block {
	var out Block
	for r := 0; r < BlockSize; r++ {
		for c := 0; c < BlockSize; c++ {
			v := b[r*BlockSize+c]
			if c%2 == 1 {
				v = -v
			}
			out[r*BlockSize+c] = v
		}
	}
	return out
}

// FlipV returns the coefficient block corresponding to flipping the spatial
// block vertically: AC coefficients with odd vertical frequency change sign.
func (b *Block) FlipV() Block {
	var out Block
	for r := 0; r < BlockSize; r++ {
		for c := 0; c < BlockSize; c++ {
			v := b[r*BlockSize+c]
			if r%2 == 1 {
				v = -v
			}
			out[r*BlockSize+c] = v
		}
	}
	return out
}

// Rotate180 returns the coefficient block for a 180-degree spatial rotation
// (flip horizontally then vertically).
func (b *Block) Rotate180() Block {
	h := b.FlipH()
	return h.FlipV()
}

// Rotate90CW returns the coefficient block for a 90-degree clockwise spatial
// rotation: transpose then horizontal flip.
func (b *Block) Rotate90CW() Block {
	t := b.Transpose()
	return t.FlipH()
}

// Rotate90CCW returns the coefficient block for a 90-degree counter-clockwise
// spatial rotation: transpose then vertical flip.
func (b *Block) Rotate90CCW() Block {
	t := b.Transpose()
	return t.FlipV()
}
