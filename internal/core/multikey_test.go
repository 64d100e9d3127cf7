package core

import (
	"bytes"
	"image/jpeg"
	"math"
	"testing"

	"puppies/internal/jpegc"
	"puppies/internal/keys"
	"puppies/internal/transform"
)

// multiFixture encrypts the whole of base with three pairs cycled across
// block groups (§IV-D extension).
func multiFixture(t *testing.T, params Params, base *jpegc.Image) (*jpegc.Image, *PublicData, []*keys.Pair) {
	t.Helper()
	sch, err := NewScheme(params)
	if err != nil {
		t.Fatal(err)
	}
	pairs := []*keys.Pair{
		keys.NewPairDeterministic(301),
		keys.NewPairDeterministic(302),
		keys.NewPairDeterministic(303),
	}
	img := base.Clone()
	pd, _, err := sch.EncryptImage(img, []RegionAssignment{
		{ROI: ROI{X: 0, Y: 0, W: base.W, H: base.H}, Pairs: pairs},
	})
	if err != nil {
		t.Fatal(err)
	}
	return img, pd, pairs
}

// multiInputs are the multi-key test images: 96x96 = 144 luma blocks per
// channel, three 64-block groups (the third partial), so all three pairs
// are exercised. The stdlib stream is 4:2:0, whose 6x6 chroma blocks are
// keyed by their co-located luma blocks and so also span all three groups.
func multiInputs(t *testing.T) map[string]*jpegc.Image {
	t.Helper()
	base := naturalImage(t, 96, 96, 75)
	planar, err := base.ToPlanar()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := jpeg.Encode(&buf, planar.Quantize8().ToStdImage(), &jpeg.Options{Quality: 90}); err != nil {
		t.Fatal(err)
	}
	sub, err := jpegc.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !sub.Subsampled() {
		t.Fatal("stdlib stream decoded as 4:4:4")
	}
	return map[string]*jpegc.Image{"4:4:4": base, "4:2:0": sub}
}

// blockKey is the original-grid key index of component ci's block (bx, by)
// in a whole-image region: the index of its top-left co-located luma block.
func blockKey(img *jpegc.Image, ci, bx, by int) int {
	maxH, maxV := img.MaxSampling()
	hs, vs := img.Comps[ci].Sampling()
	return by*(maxV/vs)*img.Comps[0].BlocksW + bx*(maxH/hs)
}

func pairMap(pairs ...*keys.Pair) map[string]*keys.Pair {
	m := map[string]*keys.Pair{}
	for _, p := range pairs {
		m[p.ID] = p
	}
	return m
}

func TestMultiKeyRoundTrip(t *testing.T) {
	for _, v := range allVariants() {
		params, _ := NewParams(v, LevelMedium)
		base := naturalImage(t, 96, 96, 75)
		img, pd, pairs := multiFixture(t, params, base)
		if len(pd.Regions[0].KeyIDs) != 3 || pd.Regions[0].KeyID != "" {
			t.Fatalf("%s: region key ids %v / %q", v, pd.Regions[0].KeyIDs, pd.Regions[0].KeyID)
		}
		n, err := DecryptImage(img, pd, pairMap(pairs...))
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if n != 1 {
			t.Fatalf("%s: %d regions fully decrypted", v, n)
		}
		if !coeffEqual(img, base) {
			t.Errorf("%s: multi-key round trip not exact", v)
		}
	}
}

func TestMultiKeyPartialDecryption(t *testing.T) {
	params, _ := NewParams(VariantC, LevelMedium)
	for name, base := range multiInputs(t) {
		img, pd, pairs := multiFixture(t, params, base)

		// Holding only the first pair decrypts only its block stripes, in
		// luma and chroma alike.
		n, err := DecryptImage(img, pd, pairMap(pairs[0]))
		if err != nil {
			t.Fatal(err)
		}
		if n != 0 {
			t.Errorf("%s: partially-keyed region counted as fully decrypted", name)
		}
		rp := &pd.Regions[0]
		for ci := range img.Comps {
			comp := &img.Comps[ci]
			for by := 0; by < comp.BlocksH; by++ {
				for bx := 0; bx < comp.BlocksW; bx++ {
					k := blockKey(img, ci, bx, by)
					got := *comp.Block(bx, by)
					want := *base.Comps[ci].Block(bx, by)
					holds := rp.KeyIDForBlock(k) == pairs[0].ID
					if holds && got != want {
						t.Fatalf("%s: channel %d block (%d,%d), key index %d (granted stripe) not recovered", name, ci, bx, by, k)
					}
					if !holds && got == want {
						t.Fatalf("%s: channel %d block (%d,%d), key index %d (ungranted stripe) was recovered", name, ci, bx, by, k)
					}
				}
			}
		}
		// Receiving the remaining pairs later completes recovery: decryption
		// is per-stripe, so the second pass must cover only the new stripes.
		if _, err := DecryptImage(img, pd, pairMap(pairs[1], pairs[2])); err != nil {
			t.Fatal(err)
		}
		if !coeffEqual(img, base) {
			t.Errorf("%s: remaining key set did not complete recovery", name)
		}
	}
}

func TestMultiKeyPublicDataRoundTrip(t *testing.T) {
	params, _ := NewParams(VariantZ, LevelMedium)
	_, pd, _ := multiFixture(t, params, naturalImage(t, 96, 96, 75))
	data, err := pd.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodePublicData(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Regions[0].KeyIDs) != 3 {
		t.Errorf("key ids lost in serialization: %v", back.Regions[0].KeyIDs)
	}
}

func TestMultiKeyShadowReconstruction(t *testing.T) {
	params := Params{Variant: VariantC, MR: 32, K: 8, Wrap: WrapRecorded}
	for name, base := range multiInputs(t) {
		img, pd, pairs := multiFixture(t, params, base)

		spec := transform.Spec{Op: transform.OpScale, FactorX: 0.5, FactorY: 0.5}
		pertPix, err := img.ToPlanar()
		if err != nil {
			t.Fatal(err)
		}
		transformed, err := transform.ApplyPlanar(pertPix, spec)
		if err != nil {
			t.Fatal(err)
		}
		pdT := *pd
		pdT.Transform = spec
		got, err := ReconstructPixels(transformed, &pdT, pairMap(pairs...))
		if err != nil {
			t.Fatal(err)
		}
		basePix, err := base.ToPlanar()
		if err != nil {
			t.Fatal(err)
		}
		want, err := transform.ApplyPlanar(basePix, spec)
		if err != nil {
			t.Fatal(err)
		}
		if p := psnrOn(t, got, want); p < 55 {
			t.Errorf("%s: multi-key pixel reconstruction PSNR %.1f dB", name, p)
		}

		// With only the first pair, the shadow covers only its stripes:
		// granted blocks come back, ungranted blocks keep exactly the
		// perturbed pixels. Each component block is checked on the
		// full-resolution pixels only its own samples reach (chroma is
		// upsampled bilinearly, which blends neighbours at block edges).
		pdN := *pd
		pdN.Transform = transform.Spec{Op: transform.OpNone}
		part, err := ReconstructPixels(pertPix, &pdN, pairMap(pairs[0]))
		if err != nil {
			t.Fatal(err)
		}
		rp := &pd.Regions[0]
		maxH, maxV := img.MaxSampling()
		for ci := range img.Comps {
			comp := &img.Comps[ci]
			hs, vs := comp.Sampling()
			fx, fy := maxH/hs, maxV/vs
			for by := 0; by < comp.BlocksH; by++ {
				for bx := 0; bx < comp.BlocksW; bx++ {
					k := blockKey(img, ci, bx, by)
					holds := rp.KeyIDForBlock(k) == pairs[0].ID
					var baseDiff, pertDiff float64
					for y := (by*8+1)*fy + fy/2; y < (by*8+7)*fy-fy/2; y++ {
						for x := (bx*8+1)*fx + fx/2; x < (bx*8+7)*fx-fx/2; x++ {
							v := float64(part.Planes[ci].At(x, y))
							baseDiff = math.Max(baseDiff, math.Abs(v-float64(basePix.Planes[ci].At(x, y))))
							pertDiff = math.Max(pertDiff, math.Abs(v-float64(pertPix.Planes[ci].At(x, y))))
						}
					}
					if holds && baseDiff > 0.01 {
						t.Fatalf("%s: channel %d block (%d,%d) (granted stripe) off the original by %.3f", name, ci, bx, by, baseDiff)
					}
					if !holds && (pertDiff != 0 || baseDiff < 1) {
						t.Fatalf("%s: channel %d block (%d,%d) (ungranted stripe) moved %.3f from perturbed, %.3f from original", name, ci, bx, by, pertDiff, baseDiff)
					}
				}
			}
		}
	}
}

func TestMultiKeyValidation(t *testing.T) {
	img := naturalImage(t, 32, 32, 75)
	params, _ := NewParams(VariantC, LevelMedium)
	sch, _ := NewScheme(params)
	p := keys.NewPairDeterministic(1)
	if _, _, err := sch.EncryptImage(img, []RegionAssignment{
		{ROI: ROI{X: 0, Y: 0, W: 32, H: 32}, Pair: p, Pairs: []*keys.Pair{p}},
	}); err == nil {
		t.Error("both Pair and Pairs accepted")
	}
	if _, _, err := sch.EncryptImage(img, []RegionAssignment{
		{ROI: ROI{X: 0, Y: 0, W: 32, H: 32}, Pairs: []*keys.Pair{p, nil}},
	}); err == nil {
		t.Error("nil pair in Pairs accepted")
	}
	// DecryptRegion refuses multi-key regions.
	img2, pd, pairs := multiFixture(t, params, naturalImage(t, 96, 96, 75))
	if err := DecryptRegion(img2, &pd.Regions[0], pairs[0]); err == nil {
		t.Error("DecryptRegion accepted a multi-key region")
	}
}
