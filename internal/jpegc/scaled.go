package jpegc

import (
	"fmt"

	"puppies/internal/dct"
	"puppies/internal/imgplane"
	"puppies/internal/parallel"
)

// ScaledDim returns the pixel extent of a num/8-scale decode of px pixels:
// every 8-pixel block contributes num output samples, and a partial edge
// block contributes the ceiling share (never less than one pixel total).
func ScaledDim(px, num int) int {
	d := (px*num + dct.ScaleDen - 1) / dct.ScaleDen
	if d < 1 {
		d = 1
	}
	return d
}

// ToPlanarScaled decodes the coefficient image straight to a num/8-size
// planar image (num in {1, 2, 4, 8}) using the reduced inverse-DCT kernels —
// the libjpeg-style scaled decode; num 8 is the full decode ToPlanar runs.
// A 1/4-scale decode touches 4 of 64 coefficients per block and writes 1/16
// of the samples, so it runs far ahead of ToPlanar + downsampling while
// producing the same image up to the truncated high-frequency residue.
//
// Components are processed in their native subsampled geometry with a
// per-plane, per-axis kernel choice: at a 1/4-scale target a 4:2:0 chroma
// plane (already half-size) reduces by only 2x per axis, and an axis that
// would need more than the plane's own resolution simply decodes that
// axis in full. Like ToPlanar, the output planar model is 4:4:4: chroma
// planes whose reduced geometry differs from the luma's by an edge pixel
// are bilinearly aligned onto the output grid.
//
// Output is deterministic at any worker count (disjoint block-row writes,
// fixed parallel chunking).
func (m *Image) ToPlanarScaled(num int) (*imgplane.Image, error) {
	if num != 1 && num != 2 && num != 4 && num != dct.ScaleDen {
		return nil, fmt.Errorf("jpegc: scaled decode numerator %d, want 1, 2, 4 or 8 (denominator %d)", num, dct.ScaleDen)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	sw, sh := ScaledDim(m.W, num), ScaledDim(m.H, num)
	out, err := imgplane.New(sw, sh, len(m.Comps))
	if err != nil {
		return nil, err
	}
	maxH, maxV := m.MaxSampling()
	for ci := range m.Comps {
		comp := &m.Comps[ci]
		hs, vs := comp.Sampling()
		// A component sampled at half the image rate needs half the
		// reduction to land at the same absolute scale; cap at the full
		// axis. maxH/hs is 1 or 2, so nh stays inside {1, 2, 4, 8}.
		nh := min(num*(maxH/hs), dct.ScaleDen)
		nv := min(num*(maxV/vs), dct.ScaleDen)
		pw, ph := m.CompDims(ci)
		cw, ch := ScaledDim(pw, nh), ScaledDim(ph, nv)
		if cw == sw && ch == sh {
			fillPlaneScaled(comp, out.Planes[ci], nh, nv)
			continue
		}
		// A capped axis (full-size decode of a subsampled plane) or
		// odd-dimension rounding leaves the chroma grid off the luma grid;
		// align it with the shared bilinear kernel.
		native := imgplane.GetPlane(cw, ch)
		fillPlaneScaled(comp, native, nh, nv)
		imgplane.ResizeBilinearInto(native, out.Planes[ci])
		imgplane.PutPlane(native)
	}
	return out, nil
}

// fillPlaneScaled reduced-inverse-transforms a component into dst, whose
// dimensions must be the component's num/8-scaled coverage; partial edge
// blocks are cropped exactly like fillPlaneFromComponent. nh and nv of 8
// mean no reduction on that axis (the full AAN path is used when both
// axes are full — the generic matrix kernel only runs when it saves work).
func fillPlaneScaled(comp *Component, dst *imgplane.Plane, nh, nv int) {
	if nh == dct.ScaleDen && nv == dct.ScaleDen {
		fillPlaneFromComponent(comp, dst)
		return
	}
	pw, ph := dst.W, dst.H
	// Each block row writes a disjoint horizontal band of the plane.
	parallel.For(comp.BlocksH, blockRowGrain, func(lo, hi int) {
		var scratch [dct.BlockLen]float64
		out := scratch[:nh*nv]
		for by := lo; by < hi; by++ {
			for bx := 0; bx < comp.BlocksW; bx++ {
				dct.InverseQuantizedScaledInto(comp.Block(bx, by), &comp.Quant, nh, nv, out)
				for y := 0; y < nv; y++ {
					py := by*nv + y
					if py >= ph {
						break
					}
					for x := 0; x < nh; x++ {
						px := bx*nh + x
						if px >= pw {
							break
						}
						dst.Pix[py*pw+px] = float32(out[y*nh+x]) + 128
					}
				}
			}
		}
	})
}
