// Package jpegc is a coefficient-level baseline JPEG codec.
//
// PuPPIeS perturbs quantized DCT coefficients and (for the -C and -Z
// variants) rebuilds Huffman tables to match the perturbed coefficient
// distribution. The standard library's image/jpeg exposes neither, so this
// package implements the full baseline pipeline from scratch:
//
//   - a coefficient image model (8x8 quantized blocks per component),
//   - conversion to and from planar YUV pixels (internal/imgplane),
//   - baseline entropy coding (run-length + Huffman, Annex K default tables
//     or per-image optimized tables, mirroring libjpeg's optimize_coding),
//   - a JFIF bit-stream writer and reader.
//
// Components carry their own sampling factors, so 4:2:0 / 4:2:2 / 4:4:0
// streams decode, protect, and re-encode in their native subsampled
// geometry — chroma blocks are never upsampled to 4:4:4 on import. The
// writer emits MCU-interleaved baseline streams at the image's native
// sampling that Go's stdlib image/jpeg decoder accepts (verified in
// tests); the reader accepts this package's streams plus any 8-bit
// baseline stream with sampling factors up to 2x2 (e.g. stdlib output).
//
// Coefficient conventions: DC occupies [-1024, 1023]; AC occupies
// [-1023, 1023] (baseline Huffman AC categories reach size 10 only, so
// -1024 is not representable — FromPlanar clamps it away).
package jpegc

import (
	"fmt"
	"image"

	"puppies/internal/dct"
	"puppies/internal/imgplane"
	"puppies/internal/parallel"
)

// Component is one color channel of a coefficient image: a dense row-major
// grid of quantized 8x8 DCT blocks.
type Component struct {
	// BlocksW and BlocksH are the grid dimensions in blocks.
	BlocksW, BlocksH int
	// Blocks holds BlocksW*BlocksH quantized coefficient blocks.
	Blocks []dct.Block
	// Quant is the quantization table the blocks were quantized with.
	Quant dct.QuantTable
	// HSamp and VSamp are the JPEG sampling factors (1 or 2). The zero
	// value means 1, so directly constructed 4:4:4 components need not set
	// them. A component sampled below the image maximum covers
	// ceil(W*HSamp/maxH) x ceil(H*VSamp/maxV) pixels.
	HSamp, VSamp int
}

// Sampling returns the component's sampling factors, mapping the zero
// value to 1x1.
func (c *Component) Sampling() (h, v int) {
	h, v = c.HSamp, c.VSamp
	if h == 0 {
		h = 1
	}
	if v == 0 {
		v = 1
	}
	return h, v
}

// Block returns a pointer to the block at grid position (bx, by).
func (c *Component) Block(bx, by int) *dct.Block {
	return &c.Blocks[by*c.BlocksW+bx]
}

// Clone returns a deep copy of the component.
func (c *Component) Clone() Component {
	out := Component{BlocksW: c.BlocksW, BlocksH: c.BlocksH, Quant: c.Quant,
		HSamp: c.HSamp, VSamp: c.VSamp}
	out.Blocks = make([]dct.Block, len(c.Blocks))
	copy(out.Blocks, c.Blocks)
	return out
}

// Image is a coefficient-domain JPEG image: pixel dimensions plus one
// component per channel (1 = grayscale, 3 = YUV at the components' native
// sampling — 4:4:4 when every component samples at 1x1, 4:2:0/4:2:2/4:4:0
// when chroma is subsampled).
type Image struct {
	W, H  int
	Comps []Component
}

// Channels returns the number of components.
func (m *Image) Channels() int { return len(m.Comps) }

// MaxSampling returns the maximum horizontal and vertical sampling factors
// across components — the MCU geometry of the image.
func (m *Image) MaxSampling() (maxH, maxV int) {
	maxH, maxV = 1, 1
	for i := range m.Comps {
		h, v := m.Comps[i].Sampling()
		if h > maxH {
			maxH = h
		}
		if v > maxV {
			maxV = v
		}
	}
	return maxH, maxV
}

// Subsampled reports whether any component covers fewer pixels than the
// image (i.e. the image is not 4:4:4 / grayscale).
func (m *Image) Subsampled() bool {
	maxH, maxV := m.MaxSampling()
	for i := range m.Comps {
		h, v := m.Comps[i].Sampling()
		if h != maxH || v != maxV {
			return true
		}
	}
	return false
}

// CompDims returns the pixel dimensions component ci covers per the JPEG
// standard: ceil(W*hs/maxH) x ceil(H*vs/maxV).
func (m *Image) CompDims(ci int) (pw, ph int) {
	maxH, maxV := m.MaxSampling()
	h, v := m.Comps[ci].Sampling()
	return (m.W*h + maxH - 1) / maxH, (m.H*v + maxV - 1) / maxV
}

// CoeffBytes returns the total coefficient storage across components
// (the working-set size the caches and the protect loop operate on).
func (m *Image) CoeffBytes() int {
	n := 0
	for i := range m.Comps {
		n += len(m.Comps[i].Blocks)
	}
	return n * dct.BlockLen * 4
}

// Recycle returns the image's coefficient storage to the decode slab pool
// and empties the image. Only for a caller that owns the image outright and
// is done with it — typically a validation decode whose result is discarded;
// nothing may alias any component's blocks. Using the image afterwards is a
// bug.
func (m *Image) Recycle() {
	for i := range m.Comps {
		blockSlabPool.Put(m.Comps[i].Blocks)
		m.Comps[i].Blocks = nil
	}
	m.Comps = nil
}

// Clone returns a deep copy of the image.
func (m *Image) Clone() *Image {
	out := &Image{W: m.W, H: m.H, Comps: make([]Component, len(m.Comps))}
	for i := range m.Comps {
		out.Comps[i] = m.Comps[i].Clone()
	}
	return out
}

// Validate checks structural invariants.
func (m *Image) Validate() error {
	if m.W <= 0 || m.H <= 0 {
		return fmt.Errorf("jpegc: invalid dimensions %dx%d", m.W, m.H)
	}
	if len(m.Comps) != 1 && len(m.Comps) != 3 {
		return fmt.Errorf("jpegc: %d components, want 1 or 3", len(m.Comps))
	}
	maxH, maxV := m.MaxSampling()
	if len(m.Comps) == 1 && (maxH != 1 || maxV != 1) {
		return fmt.Errorf("jpegc: grayscale image with %dx%d sampling", maxH, maxV)
	}
	for i := range m.Comps {
		c := &m.Comps[i]
		hs, vs := c.Sampling()
		if hs > 2 || vs > 2 || hs < 1 || vs < 1 {
			return fmt.Errorf("jpegc: component %d sampling %dx%d out of range [1,2]", i, hs, vs)
		}
		pw, ph := m.CompDims(i)
		wantBW, wantBH := blocksFor(pw), blocksFor(ph)
		if c.BlocksW != wantBW || c.BlocksH != wantBH {
			return fmt.Errorf("jpegc: component %d grid %dx%d, want %dx%d (%dx%d sampling)",
				i, c.BlocksW, c.BlocksH, wantBW, wantBH, hs, vs)
		}
		if len(c.Blocks) != c.BlocksW*c.BlocksH {
			return fmt.Errorf("jpegc: component %d has %d blocks, want %d",
				i, len(c.Blocks), c.BlocksW*c.BlocksH)
		}
		if err := c.Quant.Validate(); err != nil {
			return fmt.Errorf("jpegc: component %d: %w", i, err)
		}
	}
	return nil
}

func blocksFor(pixels int) int { return (pixels + dct.BlockSize - 1) / dct.BlockSize }

// Options control pixel <-> coefficient conversion.
type Options struct {
	// Quality is the libjpeg-style quality in [1,100]; 0 means the default
	// of 75.
	Quality int
}

const defaultQuality = 75

func (o Options) quality() int {
	if o.Quality == 0 {
		return defaultQuality
	}
	return o.Quality
}

// tables returns the luminance and chrominance quantization tables of the
// options' quality.
func (o Options) tables() (lum, chrom dct.QuantTable, err error) {
	q := o.quality()
	if lum, err = dct.StdLuminanceQuant.ScaleQuality(q); err != nil {
		return lum, chrom, err
	}
	chrom, err = dct.StdChrominanceQuant.ScaleQuality(q)
	return lum, chrom, err
}

// FromPlanar converts a planar YUV image into a quantized coefficient image.
// Edge blocks are padded by edge replication, as conventional encoders do.
func FromPlanar(src *imgplane.Image, opts Options) (*Image, error) {
	if err := src.Validate(); err != nil {
		return nil, err
	}
	lum, chrom, err := opts.tables()
	if err != nil {
		return nil, err
	}
	return FromPlanarWithQuant(src, &lum, &chrom)
}

// FromPlanarWithQuant is FromPlanar with explicit quantization tables, used
// when re-encoding must preserve an existing image's tables (e.g. PSP-side
// pixel-domain transforms).
func FromPlanarWithQuant(src *imgplane.Image, lum, chrom *dct.QuantTable) (*Image, error) {
	if err := src.Validate(); err != nil {
		return nil, err
	}
	if err := lum.Validate(); err != nil {
		return nil, err
	}
	if err := chrom.Validate(); err != nil {
		return nil, err
	}
	out := &Image{W: src.W(), H: src.H(), Comps: make([]Component, src.Channels())}
	for ci := range src.Planes {
		qt := lum
		if ci > 0 {
			qt = chrom
		}
		out.Comps[ci] = componentFromPlane(src.Planes[ci], qt)
	}
	return out, nil
}

// FromStdImage converts a stdlib image into a 3-component 4:4:4 quantized
// coefficient image. The result is bit-identical to
// FromPlanar(imgplane.FromStdImage(src), opts), without the full-frame
// planes: each worker converts one block row's pixel rows at a time into a
// pooled strip (imgplane.RowReader) and quantizes the strip with the block
// loop FromPlanar runs.
func FromStdImage(src image.Image, opts Options) (*Image, error) {
	if src == nil {
		return nil, fmt.Errorf("jpegc: nil image")
	}
	b := src.Bounds()
	w, h := b.Dx(), b.Dy()
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("jpegc: invalid image size %dx%d", w, h)
	}
	lum, chrom, err := opts.tables()
	if err != nil {
		return nil, err
	}
	out := &Image{W: w, H: h, Comps: make([]Component, 3)}
	var fqs [3]dct.ForwardQuantizer
	for ci := range out.Comps {
		q := &lum
		if ci > 0 {
			q = &chrom
		}
		out.Comps[ci] = newComponent(w, h, q)
		fqs[ci] = dct.NewForwardQuantizer(q)
	}
	read := imgplane.RowReader(src)
	stripLen := dct.BlockSize * w
	// Each chunk of block rows converts into its own strip and writes a
	// disjoint slice of every component's blocks; src is only read. A
	// chunk is one block row: that already quantizes three components'
	// blocks, and one-row chunks leave less work unbalanced at the end.
	parallel.For(blocksFor(h), 1, func(lo, hi int) {
		// Every strip sample a block row reads is written by read first.
		buf := stripPool.GetEmpty(3 * stripLen)[:3*stripLen]
		var spatial dct.FloatBlock
		for by := lo; by < hi; by++ {
			rows := min(dct.BlockSize, h-by*dct.BlockSize)
			var strips [3]imgplane.Plane
			for ci := range strips {
				strips[ci] = imgplane.Plane{W: w, H: rows, Pix: buf[ci*stripLen:][:rows*w]}
			}
			for y := 0; y < rows; y++ {
				read(by*dct.BlockSize+y, strips[0].Pix[y*w:][:w], strips[1].Pix[y*w:][:w], strips[2].Pix[y*w:][:w])
			}
			for ci := range strips {
				quantizeBlockRow(out.Comps[ci].blockRow(by), &strips[ci], &fqs[ci], &spatial)
			}
		}
		stripPool.Put(buf)
	})
	return out, nil
}

// newComponent returns the component grid of a w x h plane quantized with
// q. The grid may hold a recycled image's blocks: only for a caller that
// quantizes into every block (Quantize writes all 64 coefficients).
func newComponent(w, h int, q *dct.QuantTable) Component {
	bw, bh := blocksFor(w), blocksFor(h)
	blocks, _ := getGrid(bw * bh)
	return Component{BlocksW: bw, BlocksH: bh, Blocks: blocks, Quant: *q}
}

// componentFromPlane quantizes plane p into a component with table q.
func componentFromPlane(p *imgplane.Plane, q *dct.QuantTable) Component {
	comp := newComponent(p.W, p.H, q)
	fq := dct.NewForwardQuantizer(q)
	// Block rows are independent: each worker owns its own scratch block
	// and writes a disjoint slice of comp.Blocks, so output is identical
	// at any worker count.
	parallel.For(comp.BlocksH, blockRowGrain, func(lo, hi int) {
		var spatial dct.FloatBlock
		for by := lo; by < hi; by++ {
			rows := min(dct.BlockSize, p.H-by*dct.BlockSize)
			strip := imgplane.Plane{W: p.W, H: rows, Pix: p.Pix[by*dct.BlockSize*p.W:][:rows*p.W]}
			quantizeBlockRow(comp.blockRow(by), &strip, &fq, &spatial)
		}
	})
	return comp
}

// blockRow returns block row by of the component's grid.
func (c *Component) blockRow(by int) []dct.Block {
	return c.Blocks[by*c.BlocksW:][:c.BlocksW]
}

// blockRowGrain is the parallel chunk size for block-grid loops: a few
// block rows per chunk amortizes scheduling without starving the pool on
// small images.
const blockRowGrain = 4

// quantizeBlockRow forward-transforms and quantizes one block row. strip
// holds the row's pixel rows: 8 of them, or fewer in the image's last block
// row. Samples right of strip.W and below strip.H are padded by edge
// replication (Plane.At), as conventional encoders do.
func quantizeBlockRow(dst []dct.Block, strip *imgplane.Plane, fq *dct.ForwardQuantizer, spatial *dct.FloatBlock) {
	// Blocks left of innerW lie wholly inside a full strip.
	innerW := strip.W / dct.BlockSize
	if strip.H < dct.BlockSize {
		innerW = 0
	}
	for bx := range dst {
		if bx < innerW {
			for y := 0; y < dct.BlockSize; y++ {
				row := strip.Pix[y*strip.W+bx*dct.BlockSize:][:dct.BlockSize]
				out := spatial[y*dct.BlockSize:][:dct.BlockSize]
				for x, v := range row {
					out[x] = float64(v) - 128
				}
			}
		} else {
			for y := 0; y < dct.BlockSize; y++ {
				for x := 0; x < dct.BlockSize; x++ {
					spatial[y*dct.BlockSize+x] = float64(strip.At(bx*dct.BlockSize+x, y)) - 128
				}
			}
		}
		fq.Quantize(&dst[bx], spatial)
	}
}

// ToPlanar converts the coefficient image back to unclamped planar YUV
// pixels (dequantize + inverse DCT + level unshift): the full-size case of
// ToPlanarScaled. Subsampled components are reconstructed at their native
// resolution and bilinearly upsampled to the full image size, so the planar
// model stays 4:4:4 for consumers.
func (m *Image) ToPlanar() (*imgplane.Image, error) {
	return m.ToPlanarScaled(dct.ScaleDen)
}

// fillPlaneFromComponent dequantizes + inverse-transforms a component into
// dst (whose dimensions must match the component's nominal pixel coverage;
// partial edge blocks are cropped).
func fillPlaneFromComponent(comp *Component, dst *imgplane.Plane) {
	pw, ph := dst.W, dst.H
	// Each block row writes a disjoint horizontal band of the plane.
	parallel.For(comp.BlocksH, blockRowGrain, func(lo, hi int) {
		for by := lo; by < hi; by++ {
			for bx := 0; bx < comp.BlocksW; bx++ {
				spatial := dct.InverseQuantized(comp.Block(bx, by), &comp.Quant)
				for y := 0; y < dct.BlockSize; y++ {
					py := by*dct.BlockSize + y
					if py >= ph {
						break
					}
					for x := 0; x < dct.BlockSize; x++ {
						px := bx*dct.BlockSize + x
						if px >= pw {
							break
						}
						dst.Pix[py*pw+px] = float32(spatial[y*dct.BlockSize+x]) + 128
					}
				}
			}
		}
	})
}
