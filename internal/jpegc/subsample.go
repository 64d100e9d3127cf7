package jpegc

import "puppies/internal/imgplane"

// finishSampling converts the freshly decoded, MCU-padded component grids
// into the image's native per-component layout: each component is trimmed
// to its nominal block grid (decoding leaves whole-MCU padding rows and
// columns) and tagged with its sampling factors. Subsampled chroma stays at
// native resolution — every coefficient survives import bit-exactly.
func (d *decoder) finishSampling() error {
	for ci := range d.img.Comps {
		comp := &d.img.Comps[ci]
		comp.HSamp = d.comps[ci].hSamp
		comp.VSamp = d.comps[ci].vSamp
		pw, ph := d.img.CompDims(ci)
		trimComponent(comp, blocksFor(pw), blocksFor(ph))
	}
	return nil
}

// trimComponent crops the block grid to the given dimensions (dropping
// MCU padding). No-op when the grid already matches.
func trimComponent(comp *Component, bw, bh int) {
	if comp.BlocksW == bw && comp.BlocksH == bh {
		return
	}
	blocks, _ := getGrid(bw * bh) // the copy below fills every block
	for by := 0; by < bh; by++ {
		copy(blocks[by*bw:(by+1)*bw], comp.Blocks[by*comp.BlocksW:by*comp.BlocksW+bw])
	}
	blockSlabPool.Put(comp.Blocks)
	comp.BlocksW, comp.BlocksH = bw, bh
	comp.Blocks = blocks
}

// Normalize444 returns an equivalent image whose components all sample at
// the image maximum (4:4:4 for color): subsampled chroma is dequantized,
// bilinearly upsampled in the pixel domain, and re-quantized at full
// resolution with its own quantization table. This is the compatibility
// path for consumers that require equal component grids — it re-encodes
// chroma once (the unavoidable cost of any 4:4:4 transcode), exactly what
// the decoder used to do unconditionally on import. Already-4:4:4 images
// are returned unchanged (same pointer).
//
// Intermediate planes come from the imgplane pool, so repeated
// normalization does not allocate per-component scratch.
func (m *Image) Normalize444() (*Image, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if !m.Subsampled() {
		return m, nil
	}
	out := &Image{W: m.W, H: m.H, Comps: make([]Component, len(m.Comps))}
	full := imgplane.GetPlane(m.W, m.H)
	defer imgplane.PutPlane(full)
	for ci := range m.Comps {
		comp := &m.Comps[ci]
		pw, ph := m.CompDims(ci)
		if pw == m.W && ph == m.H {
			out.Comps[ci] = comp.Clone()
			out.Comps[ci].HSamp, out.Comps[ci].VSamp = 1, 1
			continue
		}
		native := imgplane.GetPlane(pw, ph)
		fillPlaneFromComponent(comp, native)
		imgplane.ResizeBilinearInto(native, full)
		imgplane.PutPlane(native)
		out.Comps[ci] = componentFromPlane(full, &comp.Quant)
	}
	return out, nil
}
