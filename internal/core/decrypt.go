package core

import (
	"fmt"

	"puppies/internal/dct"
	"puppies/internal/jpegc"
	"puppies/internal/keys"
	"puppies/internal/transform"
)

// DecryptRegion reverses the perturbation of one single-key region in place
// (scenario 1, Lemma III.1). The image must be in the same geometry the
// region parameters describe. Multi-key regions (§IV-D) go through
// DecryptImage.
func DecryptRegion(img *jpegc.Image, rp *RegionParams, pair *keys.Pair) error {
	if pair == nil {
		return fmt.Errorf("core: nil key pair")
	}
	if len(rp.KeyIDs) > 0 {
		return fmt.Errorf("core: region uses %d key pairs; use DecryptImage", len(rp.KeyIDs))
	}
	if pair.ID != rp.KeyID {
		return fmt.Errorf("core: key %s does not match region key %s", pair.ID, rp.KeyID)
	}
	return decryptRegionBlocks(img, rp, []*keys.Pair{pair})
}

// decryptRegionBlocks reverses the perturbation of every block whose stripe
// key is held; pairs has one entry per rp.AllKeyIDs(), nil for keys the
// receiver does not hold (those stripes stay perturbed).
func decryptRegionBlocks(img *jpegc.Image, rp *RegionParams, pairs []*keys.Pair) error {
	if err := img.Validate(); err != nil {
		return err
	}
	if err := rp.ROI.Validate(img.W, img.H); err != nil {
		return err
	}
	rs, err := newRegionSchedule(rp, pairs, samplingOf(img), len(img.Comps))
	if err != nil {
		return err
	}
	zind := newPosBitset(rp.ZInd, rs)
	defer zind.release()
	variantZ := rp.Variant == VariantZ

	// Blocks are mutated in place, each by exactly one visit, so the result
	// is identical at any worker count.
	walkRegion(rs, func(_ *struct{}, v blockVisit) {
		b := img.Comps[v.ci].Block(v.cbx, v.cby)
		b[0] = wrapSub(b[0], rs.scheme.dcDelta(v.pair, v.k), dcOffset, dcModulus)
		for _, zz8 := range v.tbl.Active {
			zz := int(zz8)
			nat := dct.ZigZag[zz]
			// A stored zero was perturbed only if recorded in ZInd.
			if variantZ && b[nat] == 0 && !zind.test(v.ci, v.k, zz) {
				continue
			}
			b[nat] = wrapSub(b[nat], v.tbl.Deltas[zz], acOffset, acModulus)
		}
	})
	return nil
}

// DecryptImage decrypts every region (or, for §IV-D multi-key regions,
// every block stripe) whose key is available in pairs, in place. It returns
// the number of regions whose keys were all available; regions or stripes
// without keys are left perturbed, which is the personalized-privacy
// behaviour of §III-C ("the receiver may only get part of these matrices").
func DecryptImage(img *jpegc.Image, pd *PublicData, pairs map[string]*keys.Pair) (int, error) {
	if err := pd.Validate(); err != nil {
		return 0, err
	}
	if img.W != pd.W || img.H != pd.H {
		return 0, fmt.Errorf("core: image is %dx%d but public data says %dx%d", img.W, img.H, pd.W, pd.H)
	}
	if err := checkImageSampling(img, pd); err != nil {
		return 0, err
	}
	n := 0
	for i := range pd.Regions {
		rp := &pd.Regions[i]
		held, count := heldPairs(rp, pairs)
		if count == 0 {
			continue
		}
		if err := decryptRegionBlocks(img, rp, held); err != nil {
			return n, fmt.Errorf("core: region %d: %w", i, err)
		}
		if count == len(held) {
			n++
		}
	}
	return n, nil
}

// inverseSpec returns the transform that undoes a lossless
// coefficient-domain spec.
func inverseSpec(spec transform.Spec) (transform.Spec, error) {
	switch spec.Op {
	case transform.OpNone:
		return spec, nil
	case transform.OpRotate90:
		return transform.Spec{Op: transform.OpRotate270}, nil
	case transform.OpRotate180:
		return transform.Spec{Op: transform.OpRotate180}, nil
	case transform.OpRotate270:
		return transform.Spec{Op: transform.OpRotate90}, nil
	case transform.OpFlipH, transform.OpFlipV:
		return spec, nil
	default:
		return transform.Spec{}, fmt.Errorf("core: %s is not an invertible coefficient-domain op", spec.Op)
	}
}

// ReconstructCoeff recovers the transformed original from a PSP-transformed
// perturbed image when the transform ran in the coefficient domain
// (rotations by 90-degree multiples, flips, block-aligned crops). Recovery
// is exact: these transforms are losslessly invertible (or, for crops, the
// region parameters are re-based), so decryption happens in the original
// geometry and the transform is replayed.
//
// The returned image is what the PSP's transform would have produced from
// the unperturbed original.
func ReconstructCoeff(timg *jpegc.Image, pd *PublicData, pairs map[string]*keys.Pair) (*jpegc.Image, error) {
	if err := pd.Validate(); err != nil {
		return nil, err
	}
	spec := pd.Transform
	switch spec.Op {
	case transform.OpNone:
		out := timg.Clone()
		if _, err := DecryptImage(out, pd, pairs); err != nil {
			return nil, err
		}
		return out, nil

	case transform.OpRotate90, transform.OpRotate180, transform.OpRotate270,
		transform.OpFlipH, transform.OpFlipV:
		inv, err := inverseSpec(spec)
		if err != nil {
			return nil, err
		}
		orig, err := transform.Apply(timg, inv)
		if err != nil {
			return nil, err
		}
		if _, err := DecryptImage(orig, pd, pairs); err != nil {
			return nil, err
		}
		return transform.Apply(orig, spec)

	case transform.OpCrop:
		if !spec.IsCoefficientDomain() {
			return nil, fmt.Errorf("core: unaligned crop is a pixel-domain transform; use ReconstructPixels")
		}
		cropped, err := CropPublicData(pd, spec.X, spec.Y, spec.W, spec.H)
		if err != nil {
			return nil, err
		}
		out := timg.Clone()
		if _, err := DecryptImage(out, cropped, pairs); err != nil {
			return nil, err
		}
		return out, nil

	case transform.OpCompress:
		return nil, fmt.Errorf("core: compression recovery needs the stored image; use ReconstructCompressed")

	default:
		return nil, fmt.Errorf("core: %s is a pixel-domain transform; use ReconstructPixels", spec.Op)
	}
}

// CropPublicData rewrites public data for a block-aligned PSP-side crop:
// region rectangles are intersected with the crop window, re-based into
// crop coordinates, and their Base* fields updated so DC indexing still
// follows the original region grid.
func CropPublicData(pd *PublicData, x, y, w, h int) (*PublicData, error) {
	if x%dct.BlockSize != 0 || y%dct.BlockSize != 0 || w%dct.BlockSize != 0 || h%dct.BlockSize != 0 {
		return nil, fmt.Errorf("core: crop (%d,%d,%d,%d) not block-aligned", x, y, w, h)
	}
	if w <= 0 || h <= 0 || x < 0 || y < 0 || x+w > pd.W || y+h > pd.H {
		return nil, fmt.Errorf("core: crop (%d,%d,%d,%d) outside %dx%d", x, y, w, h, pd.W, pd.H)
	}
	if len(pd.Sampling) > 0 {
		// A subsampled stored image can only be cropped on its MCU grid —
		// anything finer would split chroma blocks, which has no
		// coefficient-domain representation.
		maxH, maxV := maxSampling(pd.Sampling)
		crop := ROI{X: x, Y: y, W: w, H: h}
		if !crop.AlignedToMCU(pd.W, pd.H, maxH, maxV) {
			return nil, fmt.Errorf("core: crop (%d,%d,%d,%d) not aligned to the %dx%d-pixel MCU grid of this subsampled image",
				x, y, w, h, dct.BlockSize*maxH, dct.BlockSize*maxV)
		}
	}
	out := &PublicData{
		W: w, H: h, Channels: pd.Channels,
		LumQuant: pd.LumQuant, ChromQuant: pd.ChromQuant,
		Sampling:  append([]CompSampling(nil), pd.Sampling...),
		Transform: transform.Spec{Op: transform.OpNone},
	}
	window := ROI{X: x, Y: y, W: w, H: h}
	for i := range pd.Regions {
		rp := pd.Regions[i] // copy
		inter, ok := rp.ROI.Intersect(window)
		if !ok {
			continue
		}
		rp.BaseBW = rp.baseBW()
		// Block offset of the surviving part inside the original region grid.
		rp.BaseBX += (inter.X - rp.ROI.X) / dct.BlockSize
		rp.BaseBY += (inter.Y - rp.ROI.Y) / dct.BlockSize
		rp.ROI = ROI{X: inter.X - x, Y: inter.Y - y, W: inter.W, H: inter.H}
		out.Regions = append(out.Regions, rp)
	}
	return out, nil
}

// ReconstructCompressed implements compression support (paper §IV-C.2):
// given the stored perturbed image and both quantization contexts, the
// receiver first recovers the original coefficients and then replays the
// PSP's recompression, producing exactly what the PSP would have served
// for an unperturbed original.
func ReconstructCompressed(stored *jpegc.Image, pd *PublicData, pairs map[string]*keys.Pair, quality int) (*jpegc.Image, error) {
	out := stored.Clone()
	if _, err := DecryptImage(out, pd, pairs); err != nil {
		return nil, err
	}
	return transform.Recompress(out, quality)
}
