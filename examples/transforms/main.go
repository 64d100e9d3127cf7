// Transforms: the paper's headline feature (Figs. 10 and 16) driven through
// the real HTTP PSP simulator.
//
// A protected photo is uploaded to a PSP; the PSP rotates it (coefficient
// domain, like jpegtran) and scales it (pixel domain); the receiver
// reconstructs the transformed original from each copy — exactly — using
// only the private matrices and public data.
//
//	go run ./examples/transforms
package main

import (
	"bytes"
	"context"
	"fmt"
	"image"
	"log"
	"math"
	"net/http/httptest"

	"puppies"
	"puppies/internal/core"
	"puppies/internal/dataset"
	"puppies/internal/imgplane"
	"puppies/internal/jpegc"
	"puppies/internal/keys"
	"puppies/internal/psp"
	"puppies/internal/transform"
)

func main() {
	ctx := context.Background()
	// Spin up the PSP.
	server := httptest.NewServer(psp.NewServer().Handler())
	defer server.Close()
	client := &psp.Client{BaseURL: server.URL}
	fmt.Println("PSP running at", server.URL)

	// Sender: protect a photo (transform support on, so pixel-domain
	// recovery is exact).
	gen, err := dataset.NewGenerator(dataset.PASCAL, 7)
	if err != nil {
		log.Fatal(err)
	}
	item := gen.Item(2)
	photo := item.Image.Quantize8().ToStdImage()
	region := puppies.Rect{X: 96, Y: 96, W: 128, H: 96}
	prot, err := puppies.Protect(photo, puppies.ProtectOptions{
		Regions:          []puppies.Rect{region},
		Variant:          puppies.VariantC,
		TransformSupport: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Upload through the HTTP API.
	id, err := client.Upload(ctx, prot.JPEG, prot.Params)
	if err != nil {
		log.Fatal(err)
	}
	pd, err := core.DecodePublicData(prot.Params)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("uploaded protected image as", id)

	keyring := map[string]*keys.Pair{prot.Keys[0].ID: prot.Keys[0]}
	reference, err := jpegc.Decode(bytes.NewReader(mustEncode(photo)))
	if err != nil {
		log.Fatal(err)
	}

	// 1. PSP-side lossless rotation (Fig. 10).
	rotSpec := transform.Spec{Op: transform.OpRotate90}
	rotated, err := client.FetchTransformed(ctx, id, rotSpec)
	if err != nil {
		log.Fatal(err)
	}
	pdRot := *pd
	pdRot.Transform = rotSpec
	recRot, err := core.ReconstructCoeff(rotated, &pdRot, keyring)
	if err != nil {
		log.Fatal(err)
	}
	wantRot, err := transform.Rotate90(reference)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rotate90:  recovered %dx%d, exact=%v\n",
		recRot.W, recRot.H, equal(recRot, wantRot))

	// 2. PSP-side downscale (Fig. 16), lossless pixel delivery.
	scaleSpec := transform.Spec{Op: transform.OpScale, FactorX: 0.5, FactorY: 0.5}
	scaledPix, err := client.FetchTransformedPixels(ctx, id, scaleSpec)
	if err != nil {
		log.Fatal(err)
	}
	pdScale := *pd
	pdScale.Transform = scaleSpec
	recScale, err := core.ReconstructPixels(scaledPix, &pdScale, keyring)
	if err != nil {
		log.Fatal(err)
	}
	refPix, err := reference.ToPlanar()
	if err != nil {
		log.Fatal(err)
	}
	wantScale, err := transform.ApplyPlanar(refPix, scaleSpec)
	if err != nil {
		log.Fatal(err)
	}
	psnr, err := imgplane.ImagePSNR(recScale, wantScale)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scale 0.5: recovered %dx%d, PSNR vs scaled original = %s\n",
		recScale.W(), recScale.H(), fmtPSNR(psnr))

	// 3. Without the key, the scaled copy still hides the region.
	noKey, err := core.ReconstructPixels(scaledPix, &pdScale, nil)
	if err != nil {
		log.Fatal(err)
	}
	noKeyPSNR, err := imgplane.ImagePSNR(noKey, wantScale)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("no key:    PSNR vs scaled original = %s (region stays hidden)\n", fmtPSNR(noKeyPSNR))
}

func mustEncode(img image.Image) []byte {
	data, err := puppies.EncodeJPEG(img, 0)
	if err != nil {
		log.Fatal(err)
	}
	return data
}

func equal(a, b *jpegc.Image) bool {
	if a.W != b.W || a.H != b.H {
		return false
	}
	for ci := range a.Comps {
		for bi := range a.Comps[ci].Blocks {
			if a.Comps[ci].Blocks[bi] != b.Comps[ci].Blocks[bi] {
				return false
			}
		}
	}
	return true
}

func fmtPSNR(v float64) string {
	if math.IsInf(v, 1) {
		return "inf (bit exact)"
	}
	return fmt.Sprintf("%.1f dB", v)
}
