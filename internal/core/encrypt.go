package core

import (
	"fmt"

	"puppies/internal/dct"
	"puppies/internal/jpegc"
	"puppies/internal/keys"
	"puppies/internal/transform"
)

// Scheme is a configured PuPPIeS encryptor.
type Scheme struct {
	params Params
	q      [dct.BlockLen]int32 // range matrix Q' (zigzag-indexed)
}

// NewScheme validates params and precomputes the range matrix.
func NewScheme(params Params) (*Scheme, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	s := &Scheme{params: params}
	switch params.Variant {
	case VariantC, VariantZ:
		q, err := RangeMatrix(params.MR, params.K)
		if err != nil {
			return nil, err
		}
		s.q = q
	default:
		// -N and -B perturb every coefficient at full range.
		for i := range s.q {
			s.q[i] = 2048
		}
	}
	return s, nil
}

// Params returns a copy of the scheme's configuration.
func (s *Scheme) Params() Params { return s.params }

// EncodeOptions returns the entropy-coding mode the variant calls for:
// -C and -Z rebuild Huffman tables (paper §IV-B.3); -N and -B demonstrate
// the blowup under default tables.
func (s *Scheme) EncodeOptions() jpegc.EncodeOptions {
	switch s.params.Variant {
	case VariantC, VariantZ:
		return jpegc.EncodeOptions{Tables: jpegc.TablesOptimized}
	default:
		return jpegc.EncodeOptions{Tables: jpegc.TablesDefault}
	}
}

// Stats summarizes one encryption operation.
type Stats struct {
	// Blocks is the number of coefficient blocks perturbed (all channels).
	Blocks int
	// Perturbed is the number of individual coefficients changed.
	Perturbed int
	// Wraps is the number of coefficients whose addition wrapped.
	Wraps int
	// NewZeros is the number of AC coefficients that became zero
	// (VariantZ's ZInd records).
	NewZeros int
}

// dcDelta returns the DC perturbation for original-grid block index k.
func (s *Scheme) dcDelta(pair *keys.Pair, k int) int32 {
	if s.params.Variant == VariantN {
		// The strawman perturbs every DC with the same single value — the
		// weakness §IV-B.1 describes.
		return pair.DC[0]
	}
	return pair.DC[k%keys.MatrixLen]
}

// acDelta returns the AC perturbation at zigzag position zz (1..63),
// before the Z-variant zero-skip rule.
func (s *Scheme) acDelta(pair *keys.Pair, zz int) int32 {
	switch s.params.Variant {
	case VariantN, VariantB:
		return pair.AC[zz] % acModulus
	default:
		return (pair.AC[zz] % s.q[zz]) % acModulus
	}
}

// RegionAssignment pairs an ROI with the matrix pair(s) that protect it.
// Exactly one of Pair and Pairs must be set. Pairs enables the §IV-D
// extension: successive 64-block groups cycle through the listed pairs,
// multiplying the brute-force search space (and allowing stripe-granular
// sharing) at a linear key-storage cost.
type RegionAssignment struct {
	ROI   ROI
	Pair  *keys.Pair
	Pairs []*keys.Pair
}

func (ra *RegionAssignment) pairList() []*keys.Pair {
	if ra.Pair != nil {
		return []*keys.Pair{ra.Pair}
	}
	return ra.Pairs
}

// EncryptImage perturbs every assigned region of img in place and returns
// the public data to store alongside it. Regions must be disjoint and
// block-aligned. The caller keeps ownership of img (clone first if the
// original must survive).
func (s *Scheme) EncryptImage(img *jpegc.Image, regions []RegionAssignment) (*PublicData, *Stats, error) {
	if err := img.Validate(); err != nil {
		return nil, nil, err
	}
	if len(regions) == 0 {
		return nil, nil, fmt.Errorf("core: no regions to encrypt")
	}
	maxH, maxV := img.MaxSampling()
	if hs, vs := img.Comps[0].Sampling(); hs != maxH || vs != maxV {
		return nil, nil, fmt.Errorf("core: luma sampling %dx%d below image maximum %dx%d (unsupported layout)", hs, vs, maxH, maxV)
	}
	for i := range regions {
		if err := regions[i].ROI.Validate(img.W, img.H); err != nil {
			return nil, nil, err
		}
		// On subsampled images the region's chroma window rounds outward to
		// whole chroma blocks; MCU alignment guarantees the windows of
		// disjoint regions never share a chroma block (which would perturb
		// it twice) and keeps the mapping stable under MCU-aligned crops.
		if img.Subsampled() && !regions[i].ROI.AlignedToMCU(img.W, img.H, maxH, maxV) {
			return nil, nil, fmt.Errorf("core: region %d ROI %+v not aligned to the %dx%d-pixel MCU grid of this subsampled image",
				i, regions[i].ROI, dct.BlockSize*maxH, dct.BlockSize*maxV)
		}
		if regions[i].Pair != nil && len(regions[i].Pairs) > 0 {
			return nil, nil, fmt.Errorf("core: region %d sets both Pair and Pairs", i)
		}
		pairs := regions[i].pairList()
		if len(pairs) == 0 {
			return nil, nil, fmt.Errorf("core: region %d has no key pair", i)
		}
		for pi, p := range pairs {
			if p == nil {
				return nil, nil, fmt.Errorf("core: region %d pair %d is nil", i, pi)
			}
			if err := p.Validate(); err != nil {
				return nil, nil, fmt.Errorf("core: region %d pair %d: %w", i, pi, err)
			}
		}
		for j := 0; j < i; j++ {
			if regions[i].ROI.Overlaps(regions[j].ROI) {
				return nil, nil, fmt.Errorf("core: regions %d and %d overlap", j, i)
			}
		}
	}

	pd := &PublicData{
		W:         img.W,
		H:         img.H,
		Channels:  img.Channels(),
		LumQuant:  img.Comps[0].Quant,
		Sampling:  samplingOf(img),
		Transform: transform.Spec{Op: transform.OpNone},
	}
	if img.Channels() == 3 {
		pd.ChromQuant = img.Comps[1].Quant
	} else {
		pd.ChromQuant = img.Comps[0].Quant
	}

	total := &Stats{}
	for i := range regions {
		rp, st, err := s.encryptRegion(img, regions[i].ROI, regions[i].pairList())
		if err != nil {
			return nil, nil, fmt.Errorf("core: region %d: %w", i, err)
		}
		pd.Regions = append(pd.Regions, *rp)
		total.Blocks += st.Blocks
		total.Perturbed += st.Perturbed
		total.Wraps += st.Wraps
		total.NewZeros += st.NewZeros
	}
	return pd, total, nil
}

func (s *Scheme) encryptRegion(img *jpegc.Image, roi ROI, pairs []*keys.Pair) (*RegionParams, *Stats, error) {
	_, _, bw, _ := roi.Blocks()
	recordSupport := s.params.Variant == VariantZ && s.params.TransformSupport
	rp := &RegionParams{
		ROI:             roi,
		Variant:         s.params.Variant,
		MR:              s.params.MR,
		K:               s.params.K,
		Wrap:            s.params.wrap(),
		BaseBW:          bw,
		SupportRecorded: recordSupport,
	}
	if len(pairs) == 1 {
		rp.KeyID = pairs[0].ID
	} else {
		rp.KeyIDs = make([]string, len(pairs))
		for i, p := range pairs {
			rp.KeyIDs[i] = p.ID
		}
	}
	rs, err := newRegionSchedule(rp, pairs, samplingOf(img), len(img.Comps))
	if err != nil {
		return nil, nil, err
	}
	recordWraps := rp.Wrap == WrapRecorded
	variantZ := rp.Variant == VariantZ

	// Each chunk writes a disjoint set of blocks and collects its own stats
	// and index lists; merging them in chunk order below reproduces the
	// (ci, by, bx, zz) append order of a serial walk at any worker count.
	type chunkOut struct {
		st                  Stats
		wInd, zInd, support PosList
	}
	parts := walkRegion(rs, func(out *chunkOut, v blockVisit) {
		b := img.Comps[v.ci].Block(v.cbx, v.cby)
		out.st.Blocks++

		// DC (always perturbed, all variants).
		e, wrapped := wrapAdd(b[0], rs.scheme.dcDelta(v.pair, v.k), dcOffset, dcModulus)
		b[0] = e
		out.st.Perturbed++
		if wrapped {
			out.st.Wraps++
			if recordWraps {
				out.wInd = append(out.wInd, CoeffPos{Channel: uint8(v.ci), Block: uint32(v.k), Coeff: 0})
			}
		}

		// AC positions with a nonzero delta, in zigzag order.
		for _, zz8 := range v.tbl.Active {
			zz := int(zz8)
			nat := dct.ZigZag[zz]
			if variantZ && b[nat] == 0 {
				continue // Algorithm 2 skips original zeros
			}
			e, wrapped := wrapAdd(b[nat], v.tbl.Deltas[zz], acOffset, acModulus)
			b[nat] = e
			out.st.Perturbed++
			pos := CoeffPos{Channel: uint8(v.ci), Block: uint32(v.k), Coeff: uint8(zz)}
			if wrapped {
				out.st.Wraps++
				if recordWraps {
					out.wInd = append(out.wInd, pos)
				}
			}
			if variantZ {
				if e == 0 {
					out.st.NewZeros++
					out.zInd = append(out.zInd, pos)
				}
				if recordSupport {
					out.support = append(out.support, pos)
				}
			}
		}
	})

	st := &Stats{}
	for _, p := range parts {
		st.Blocks += p.st.Blocks
		st.Perturbed += p.st.Perturbed
		st.Wraps += p.st.Wraps
		st.NewZeros += p.st.NewZeros
		rp.WInd = append(rp.WInd, p.wInd...)
		rp.ZInd = append(rp.ZInd, p.zInd...)
		rp.Support = append(rp.Support, p.support...)
	}
	return rp, st, nil
}
