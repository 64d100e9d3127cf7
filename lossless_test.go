package puppies

import (
	"bytes"
	"fmt"
	"testing"

	"puppies/internal/jpegc"
	"puppies/internal/keys"
)

func TestProtectJPEGLossless(t *testing.T) {
	src := sampleImage(t, 10)
	original := mustPlainJPEG(t, src)
	region := Rect{X: 96, Y: 96, W: 64, H: 64}

	prot, err := ProtectJPEG(original, ProtectOptions{Regions: []Rect{region}})
	if err != nil {
		t.Fatal(err)
	}

	// Outside the region the coefficients are bit-identical to the input —
	// zero generation loss, unlike the pixel path.
	origImg, err := jpegc.Decode(bytes.NewReader(original))
	if err != nil {
		t.Fatal(err)
	}
	protImg, err := jpegc.Decode(bytes.NewReader(prot.JPEG))
	if err != nil {
		t.Fatal(err)
	}
	r := prot.Regions[0]
	for ci := range origImg.Comps {
		comp := &origImg.Comps[ci]
		for by := 0; by < comp.BlocksH; by++ {
			for bx := 0; bx < comp.BlocksW; bx++ {
				inROI := bx*8 >= r.X && bx*8 < r.X+r.W && by*8 >= r.Y && by*8 < r.Y+r.H
				same := *comp.Block(bx, by) == *protImg.Comps[ci].Block(bx, by)
				if !inROI && !same {
					t.Fatalf("block (%d,%d) outside ROI changed", bx, by)
				}
			}
		}
	}

	// Lossless recovery returns the exact original coefficients.
	recovered, err := UnprotectJPEG(prot.JPEG, prot.Params, prot.Keys)
	if err != nil {
		t.Fatal(err)
	}
	recImg, err := jpegc.Decode(bytes.NewReader(recovered))
	if err != nil {
		t.Fatal(err)
	}
	for ci := range origImg.Comps {
		for bi := range origImg.Comps[ci].Blocks {
			if origImg.Comps[ci].Blocks[bi] != recImg.Comps[ci].Blocks[bi] {
				t.Fatal("lossless recovery changed coefficients")
			}
		}
	}
}

func TestProtectJPEGValidation(t *testing.T) {
	src := sampleImage(t, 10)
	original := mustPlainJPEG(t, src)
	if _, err := ProtectJPEG(original, ProtectOptions{}); err == nil {
		t.Error("missing regions accepted")
	}
	if _, err := ProtectJPEG([]byte("junk"), ProtectOptions{
		Regions: []Rect{{X: 0, Y: 0, W: 8, H: 8}},
	}); err == nil {
		t.Error("garbage JPEG accepted")
	}
	if _, err := ProtectJPEG(original, ProtectOptions{
		Regions: []Rect{{X: 0, Y: 0, W: 8, H: 8}},
		Keys:    []*KeyPair{nil, nil},
	}); err == nil {
		t.Error("key count mismatch accepted")
	}
}

func TestUnprotectJPEGGarbage(t *testing.T) {
	if _, err := UnprotectJPEG([]byte("junk"), []byte("{}"), nil); err == nil {
		t.Error("garbage accepted")
	}
}

// TestProtectJPEGMatchesProtect pins the single sender pipeline: protecting
// pixels and protecting the library's own JPEG of those pixels at the same
// quality carry identical coefficients into the same scheme, so with fixed
// keys the two entry points must emit byte-identical images and parameters.
func TestProtectJPEGMatchesProtect(t *testing.T) {
	src := sampleImage(t, 4)
	const quality = 85
	jpg, err := EncodeJPEG(src, quality)
	if err != nil {
		t.Fatal(err)
	}
	// The second region is unaligned, so both paths must expand it alike.
	regions := []Rect{{X: 16, Y: 24, W: 96, H: 64}, {X: 203, Y: 117, W: 70, H: 45}}
	for _, v := range []Variant{VariantN, VariantB, VariantC, VariantZ} {
		for _, support := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/support=%v", v, support), func(t *testing.T) {
				opts := ProtectOptions{
					Variant:          v,
					Regions:          regions,
					Keys:             []*KeyPair{keys.NewPairDeterministic(1), keys.NewPairDeterministic(2)},
					Quality:          quality,
					TransformSupport: support,
				}
				fromPixels, err := Protect(src, opts)
				if err != nil {
					t.Fatal(err)
				}
				fromJPEG, err := ProtectJPEG(jpg, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(fromPixels.JPEG, fromJPEG.JPEG) {
					t.Error("JPEG bytes differ between Protect and ProtectJPEG")
				}
				if !bytes.Equal(fromPixels.Params, fromJPEG.Params) {
					t.Error("Params bytes differ between Protect and ProtectJPEG")
				}
			})
		}
	}
}
