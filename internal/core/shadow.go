package core

import (
	"fmt"

	"puppies/internal/dct"
	"puppies/internal/imgplane"
	"puppies/internal/keys"
	"puppies/internal/transform"
)

// ShadowImage builds the pixel-domain "shadow" of every region whose key is
// present: a full-size image that is zero outside the ROIs and equals the
// perturbation's pixel contribution inside them (paper §IV-C.1). Subtracting
// the (identically transformed) shadow from a transformed perturbed image
// recovers the transformed original, because all PSP pixel-domain
// transforms are linear.
//
// Regions whose keys are missing contribute nothing (they stay perturbed in
// the final output, which is the intended personalized-privacy behaviour).
// VariantZ regions require the Support list (encrypt with TransformSupport).
func ShadowImage(pd *PublicData, pairs map[string]*keys.Pair) (*imgplane.Image, error) {
	if err := pd.Validate(); err != nil {
		return nil, err
	}
	shadow, err := imgplane.New(pd.W, pd.H, pd.Channels)
	if err != nil {
		return nil, err
	}
	// Subsampled channels accumulate block IDCTs at native resolution and are
	// upsampled once at the end with the same bilinear kernel the decoder's
	// ToPlanar uses. Upsampling is linear, so
	// up(native perturbed) - up(native shadow) = up(native original) exactly —
	// the shadow cancels the served pixels with no resampling residue.
	samp := normSampling(pd.Sampling, pd.Channels)
	maxH, maxV := maxSampling(samp)
	natives := make([]*imgplane.Plane, pd.Channels)
	for ci := range natives {
		if samp[ci].H == maxH && samp[ci].V == maxV {
			natives[ci] = shadow.Planes[ci]
			continue
		}
		pw := (pd.W*samp[ci].H + maxH - 1) / maxH
		ph := (pd.H*samp[ci].V + maxV - 1) / maxV
		p := imgplane.GetPlane(pw, ph)
		clear(p.Pix)
		natives[ci] = p
	}
	for i := range pd.Regions {
		rp := &pd.Regions[i]
		held, count := heldPairs(rp, pairs)
		if count == 0 {
			continue
		}
		if err := addRegionShadow(natives, pd, rp, held); err != nil {
			return nil, fmt.Errorf("core: region %d shadow: %w", i, err)
		}
	}
	for ci, p := range natives {
		if p != shadow.Planes[ci] {
			imgplane.ResizeBilinearInto(p, shadow.Planes[ci])
			imgplane.PutPlane(p)
		}
	}
	return shadow, nil
}

func addRegionShadow(natives []*imgplane.Plane, pd *PublicData, rp *RegionParams, pairs []*keys.Pair) error {
	rs, err := newRegionSchedule(rp, pairs, pd.Sampling, pd.Channels)
	if err != nil {
		return err
	}
	if rp.Variant == VariantZ && !rp.SupportRecorded && len(rp.Support) == 0 {
		return fmt.Errorf("core: %s region has no support list; encrypt with TransformSupport for pixel-domain recovery", rp.Variant)
	}
	wind := newPosBitset(rp.WInd, rs)
	defer wind.release()
	support := newPosBitset(rp.Support, rs)
	defer support.release()
	variantZ := rp.Variant == VariantZ

	// Each block writes its own 8x8 pixel square of its channel's native
	// plane (subsampled channels at chroma-grid offsets), so the
	// accumulation is race-free and order-independent.
	walkRegion(rs, func(_ *struct{}, v blockVisit) {
		quant := &pd.LumQuant
		if v.ci > 0 {
			quant = &pd.ChromQuant
		}
		var raw dct.FloatBlock
		// DC contribution.
		delta := rs.scheme.dcDelta(v.pair, v.k)
		if wind.test(v.ci, v.k, 0) {
			delta -= dcModulus
		}
		raw[0] = float64(delta) * float64(quant[0])

		// AC contributions at positions with a nonzero delta.
		for _, zz8 := range v.tbl.Active {
			zz := int(zz8)
			if variantZ && !support.test(v.ci, v.k, zz) {
				continue
			}
			nat := dct.ZigZag[zz]
			d := v.tbl.Deltas[zz]
			if wind.test(v.ci, v.k, zz) {
				d -= acModulus
			}
			raw[nat] = float64(d) * float64(quant[nat])
		}

		spatial := dct.Inverse(&raw)
		plane := natives[v.ci]
		for y := 0; y < dct.BlockSize; y++ {
			py := v.cby*dct.BlockSize + y
			for x := 0; x < dct.BlockSize; x++ {
				px := v.cbx*dct.BlockSize + x
				// Set ignores writes past the native plane edge
				// (partial edge blocks), matching the decoder's crop.
				plane.Set(px, py, plane.At(px, py)+float32(spatial[y*dct.BlockSize+x]))
			}
		}
	})
	return nil
}

// ReconstructPixels recovers the transformed original from a PSP-transformed
// perturbed image served as pixels (scenario 2 for pixel-domain transforms:
// scaling, arbitrary rotation, filtering, unaligned crops). The shadow is
// built in the original geometry, the PSP's transform (pd.Transform) is
// replayed on it, and the result subtracted.
//
// Exactness: exact under WrapRecorded; under WrapModular, wrapped
// coefficients (Stats.Wraps of the encryption) leave localized residue.
func ReconstructPixels(transformed *imgplane.Image, pd *PublicData, pairs map[string]*keys.Pair) (*imgplane.Image, error) {
	if err := pd.Transform.Validate(); err != nil {
		return nil, err
	}
	if !pd.Transform.IsLinear() {
		return nil, fmt.Errorf("core: %s is not linear; use ReconstructCompressed", pd.Transform.Op)
	}
	shadow, err := ShadowImage(pd, pairs)
	if err != nil {
		return nil, err
	}
	tShadow, err := transform.ApplyPlanar(shadow, pd.Transform)
	if err != nil {
		return nil, err
	}
	if transformed.Channels() != tShadow.Channels() {
		return nil, fmt.Errorf("core: transformed image has %d channels, shadow %d",
			transformed.Channels(), tShadow.Channels())
	}
	out := &imgplane.Image{Planes: make([]*imgplane.Plane, transformed.Channels())}
	for ci := range transformed.Planes {
		p, err := transformed.Planes[ci].Sub(tShadow.Planes[ci])
		if err != nil {
			return nil, fmt.Errorf("core: channel %d: %w (did the PSP apply the declared transform?)", ci, err)
		}
		out.Planes[ci] = p
	}
	return out, nil
}
