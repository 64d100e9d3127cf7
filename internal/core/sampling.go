package core

import (
	"fmt"

	"puppies/internal/jpegc"
)

// Native subsampled geometry support. A protected region is defined on the
// luma block grid (ROIs are 8-pixel aligned in image coordinates), but on a
// 4:2:0/4:2:2/4:4:0 image the chroma components store fewer, larger-footprint
// blocks. The mapping rules (DESIGN.md §14):
//
//   - A region's window on component ci is the outward-rounded projection
//     of its luma block rectangle: chroma block cx covers luma blocks
//     [cx*rh, (cx+1)*rh) where rh = maxH/hs, so the window is
//     [floor(bx0/rh), ceil((bx0+bw)/rh)) (and likewise vertically). Every
//     chroma block overlapping the ROI is perturbed — privacy rounds
//     outward, never inward.
//   - A chroma block's key index k is the ORIGINAL-grid region-local index
//     of its top-left co-located luma block: the same k stream the luma
//     channel uses, so PosList records, §IV-D key cycling, and the Base*
//     crop rebasing all work unchanged in luma-grid space.
//   - EncryptImage requires MCU-aligned ROIs on subsampled images
//     (AlignedToMCU), which makes region windows exactly disjoint across
//     disjoint regions and the mapping stable under MCU-aligned crops.
//     The puppies facade falls back to Normalize444 when a caller's
//     regions cannot be MCU-aligned without overlapping.

// CompSampling is one component's JPEG sampling factors (1 or 2 each).
type CompSampling struct {
	H int `json:"h"`
	V int `json:"v"`
}

// samplingOf extracts per-component sampling factors. It returns nil for
// 4:4:4 and grayscale images, keeping public data byte-identical to the
// legacy layout for the common case.
func samplingOf(img *jpegc.Image) []CompSampling {
	if !img.Subsampled() {
		return nil
	}
	out := make([]CompSampling, len(img.Comps))
	for i := range img.Comps {
		h, v := img.Comps[i].Sampling()
		out[i] = CompSampling{H: h, V: v}
	}
	return out
}

// normSampling maps a possibly-nil sampling list to one entry per channel,
// zero values reading as 1 (the legacy 4:4:4 layout).
func normSampling(s []CompSampling, channels int) []CompSampling {
	out := make([]CompSampling, channels)
	for i := range out {
		out[i] = CompSampling{H: 1, V: 1}
		if i < len(s) {
			if s[i].H > 0 {
				out[i].H = s[i].H
			}
			if s[i].V > 0 {
				out[i].V = s[i].V
			}
		}
	}
	return out
}

func maxSampling(s []CompSampling) (maxH, maxV int) {
	maxH, maxV = 1, 1
	for _, cs := range s {
		if cs.H > maxH {
			maxH = cs.H
		}
		if cs.V > maxV {
			maxV = cs.V
		}
	}
	return maxH, maxV
}

// validateSampling checks a public-data sampling list: 1 or 2 per axis, and
// the first (luma) component at full resolution — the ROI grid is the luma
// grid, so a subsampled luma has no block-exact region geometry.
func validateSampling(s []CompSampling, channels int) error {
	if len(s) == 0 {
		return nil
	}
	if len(s) != channels {
		return fmt.Errorf("core: sampling list has %d entries for %d channels", len(s), channels)
	}
	for i, cs := range s {
		if cs.H < 1 || cs.H > 2 || cs.V < 1 || cs.V > 2 {
			return fmt.Errorf("core: channel %d sampling %dx%d out of range [1,2]", i, cs.H, cs.V)
		}
	}
	maxH, maxV := maxSampling(s)
	if s[0].H != maxH || s[0].V != maxV {
		return fmt.Errorf("core: luma sampling %dx%d below image maximum %dx%d", s[0].H, s[0].V, maxH, maxV)
	}
	return nil
}

// compWindow is a region's projection onto one component's block grid.
type compWindow struct {
	cbx0, cby0 int // window origin, component-grid blocks
	cbw, cbh   int // window size in component blocks
	rh, rv     int // luma blocks per component block (1 or 2)
	lbx0, lby0 int // window origin on the luma grid (ROI block origin)
	lbw, lbh   int // luma window size in blocks
}

// windowFor projects a region's luma block rectangle onto a component with
// sampling (hs, vs) under MCU geometry (maxH, maxV), rounding outward so
// every component block overlapping the ROI is inside the window.
func windowFor(roi ROI, hs, vs, maxH, maxV int) compWindow {
	bx0, by0, bw, bh := roi.Blocks()
	rh, rv := maxH/hs, maxV/vs
	w := compWindow{rh: rh, rv: rv, lbx0: bx0, lby0: by0, lbw: bw, lbh: bh}
	w.cbx0 = bx0 / rh
	w.cby0 = by0 / rv
	w.cbw = (bx0+bw+rh-1)/rh - w.cbx0
	w.cbh = (by0+bh+rv-1)/rv - w.cby0
	return w
}

// lumaBlock maps window-local component block (j, i) to the region-local
// luma block whose key protects it: the component block's top-left
// co-located luma block, clamped into the window. The clamp can only
// trigger on the left/top edge of a non-MCU-aligned window (the right/
// bottom edges round outward by construction), and the mapping is
// injective per component either way.
func (w *compWindow) lumaBlock(j, i int) (lbx, lby int) {
	lbx = (w.cbx0+j)*w.rh - w.lbx0
	if lbx < 0 {
		lbx = 0
	} else if lbx >= w.lbw {
		lbx = w.lbw - 1
	}
	lby = (w.cby0+i)*w.rv - w.lby0
	if lby < 0 {
		lby = 0
	} else if lby >= w.lbh {
		lby = w.lbh - 1
	}
	return lbx, lby
}

// regionWindows builds each channel's region window from its sampling
// factors (samp as in PublicData.Sampling: nil for 4:4:4 and grayscale).
func regionWindows(samp []CompSampling, channels int, roi ROI) []compWindow {
	samp = normSampling(samp, channels)
	maxH, maxV := maxSampling(samp)
	out := make([]compWindow, channels)
	for ci := range out {
		out[ci] = windowFor(roi, samp[ci].H, samp[ci].V, maxH, maxV)
	}
	return out
}

// checkImageSampling verifies an image's geometry matches public data
// before coefficient-domain decryption: a geometry mismatch (e.g. a
// normalized 4:4:4 copy of a natively-subsampled upload) would silently
// decrypt garbage, because the perturbation was applied to native chroma
// blocks that no longer exist.
func checkImageSampling(img *jpegc.Image, pd *PublicData) error {
	samp := normSampling(pd.Sampling, pd.Channels)
	if len(img.Comps) != pd.Channels {
		return fmt.Errorf("core: image has %d channels, public data %d", len(img.Comps), pd.Channels)
	}
	for ci := range img.Comps {
		h, v := img.Comps[ci].Sampling()
		if h != samp[ci].H || v != samp[ci].V {
			return fmt.Errorf("core: channel %d sampling %dx%d does not match public data %dx%d (was the image re-sampled after protection?)",
				ci, h, v, samp[ci].H, samp[ci].V)
		}
	}
	return nil
}
