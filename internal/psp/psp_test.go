package psp

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"puppies/internal/core"
	"puppies/internal/imgplane"
	"puppies/internal/jpegc"
	"puppies/internal/keys"
	"puppies/internal/transform"
)

// uploadImage encodes an image and its public data into Upload's (image
// bytes, params document) pair and uploads them.
func uploadImage(ctx context.Context, client *Client, img *jpegc.Image, pd *core.PublicData, opts jpegc.EncodeOptions) (string, error) {
	var buf bytes.Buffer
	if err := img.Encode(&buf, opts); err != nil {
		return "", err
	}
	params, err := pd.Encode()
	if err != nil {
		return "", err
	}
	return client.Upload(ctx, buf.Bytes(), params)
}

func testPlanar(w, h int) *imgplane.Image {
	img, _ := imgplane.New(w, h, 3)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			img.Planes[0].Pix[i] = float32(100 + 80*math.Sin(float64(x)/6)*math.Cos(float64(y)/8))
			img.Planes[1].Pix[i] = float32(128 + 25*math.Sin(float64(x+y)/9))
			img.Planes[2].Pix[i] = float32(128 + 25*math.Cos(float64(x-y)/7))
		}
	}
	return img
}

// fixture spins up a PSP and encrypts a test image.
func fixture(t *testing.T) (*Client, *jpegc.Image, *jpegc.Image, *core.PublicData, *keys.Pair) {
	t.Helper()
	srv := httptest.NewServer(NewServer().Handler())
	t.Cleanup(srv.Close)
	client := &Client{BaseURL: srv.URL}

	base, err := jpegc.FromPlanar(testPlanar(64, 48), jpegc.Options{Quality: 80})
	if err != nil {
		t.Fatal(err)
	}
	perturbed := base.Clone()
	sch, err := core.NewScheme(core.Params{
		Variant: core.VariantC, MR: 32, K: 8, Wrap: core.WrapRecorded,
	})
	if err != nil {
		t.Fatal(err)
	}
	pair := keys.NewPairDeterministic(55)
	pd, _, err := sch.EncryptImage(perturbed, []core.RegionAssignment{
		{ROI: core.ROI{X: 16, Y: 8, W: 32, H: 24}, Pair: pair},
	})
	if err != nil {
		t.Fatal(err)
	}
	return client, base, perturbed, pd, pair
}

func TestUploadDownloadRoundTrip(t *testing.T) {
	client, _, perturbed, pd, _ := fixture(t)
	id, err := uploadImage(context.Background(), client, perturbed, pd, jpegc.EncodeOptions{Tables: jpegc.TablesOptimized})
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.FetchImage(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	for ci := range perturbed.Comps {
		for bi := range perturbed.Comps[ci].Blocks {
			if got.Comps[ci].Blocks[bi] != perturbed.Comps[ci].Blocks[bi] {
				t.Fatal("stored image coefficients changed in transit")
			}
		}
	}
	params, err := client.FetchParams(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if params.W != pd.W || len(params.Regions) != 1 {
		t.Errorf("params round trip: %+v", params)
	}
}

func TestEndToEndSharingFlow(t *testing.T) {
	client, base, perturbed, pd, pair := fixture(t)
	id, err := uploadImage(context.Background(), client, perturbed, pd, jpegc.EncodeOptions{Tables: jpegc.TablesOptimized})
	if err != nil {
		t.Fatal(err)
	}

	// Receiver with the key recovers the exact original.
	img, err := client.FetchImage(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	params, err := client.FetchParams(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	n, err := core.DecryptImage(img, params, map[string]*keys.Pair{pair.ID: pair})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("decrypted %d regions", n)
	}
	for ci := range base.Comps {
		for bi := range base.Comps[ci].Blocks {
			if img.Comps[ci].Blocks[bi] != base.Comps[ci].Blocks[bi] {
				t.Fatal("end-to-end recovery not exact")
			}
		}
	}
}

func TestTransformedPixelsRecovery(t *testing.T) {
	client, base, perturbed, pd, pair := fixture(t)
	id, err := uploadImage(context.Background(), client, perturbed, pd, jpegc.EncodeOptions{Tables: jpegc.TablesOptimized})
	if err != nil {
		t.Fatal(err)
	}
	spec := transform.Spec{Op: transform.OpScale, FactorX: 0.5, FactorY: 0.5}
	transformed, err := client.FetchTransformedPixels(context.Background(), id, spec)
	if err != nil {
		t.Fatal(err)
	}
	pdT := *pd
	pdT.Transform = spec
	recovered, err := core.ReconstructPixels(transformed, &pdT, map[string]*keys.Pair{pair.ID: pair})
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
	psnr, err := imgplane.ImagePSNR(recovered, want)
	if err != nil {
		t.Fatal(err)
	}
	if psnr < 55 {
		t.Errorf("recovery after PSP scaling: PSNR %.1f dB, want >= 55", psnr)
	}
}

func TestTransformedJPEGEndpoint(t *testing.T) {
	client, _, perturbed, pd, _ := fixture(t)
	id, err := uploadImage(context.Background(), client, perturbed, pd, jpegc.EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.FetchTransformed(context.Background(), id, transform.Spec{Op: transform.OpRotate90})
	if err != nil {
		t.Fatal(err)
	}
	if got.W != perturbed.H || got.H != perturbed.W {
		t.Errorf("rotated dims %dx%d", got.W, got.H)
	}
}

func TestServerErrors(t *testing.T) {
	srv := httptest.NewServer(NewServer().Handler())
	defer srv.Close()
	client := &Client{BaseURL: srv.URL}

	if _, err := client.FetchImage(context.Background(), "nope"); err == nil {
		t.Error("missing image fetch succeeded")
	}
	if _, err := client.FetchParams(context.Background(), "nope"); err == nil {
		t.Error("missing params fetch succeeded")
	}

	// Garbage upload bodies.
	for _, body := range []string{"not json", `{"image":"", "params":null}`} {
		resp, err := http.Post(srv.URL+"/v1/images", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Errorf("garbage upload %q accepted", body)
		}
	}

	// Valid JSON but broken JPEG bytes.
	req, _ := json.Marshal(UploadRequest{Image: []byte("not a jpeg"), Params: nil})
	resp, err := http.Post(srv.URL+"/v1/images", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("broken JPEG upload: status %d", resp.StatusCode)
	}
}

func TestBadTransformSpecRejected(t *testing.T) {
	client, _, perturbed, pd, _ := fixture(t)
	id, err := uploadImage(context.Background(), client, perturbed, pd, jpegc.EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.FetchTransformed(context.Background(), id, transform.Spec{Op: "nonsense"}); err == nil {
		t.Error("nonsense spec accepted")
	}
	if _, err := client.FetchTransformedPixels(context.Background(), id, transform.Spec{Op: transform.OpCompress, Quality: 50}); err == nil {
		t.Error("compression via pixels endpoint accepted")
	}
	// Raw query with undecodable spec JSON.
	resp, err := http.Get(client.BaseURL + "/v1/images/" + id + "/transformed?spec=%7Bnope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed spec query: status %d", resp.StatusCode)
	}
}

func TestPlanarBinaryRoundTrip(t *testing.T) {
	img := testPlanar(31, 17)
	img.Planes[0].Pix[5] = -1234.5
	img.Planes[2].Pix[9] = 99999
	data, err := img.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := imgplane.DecodeBinary(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for ci := range img.Planes {
		for i := range img.Planes[ci].Pix {
			if back.Planes[ci].Pix[i] != img.Planes[ci].Pix[i] {
				t.Fatalf("sample (%d,%d) changed", ci, i)
			}
		}
	}
	if _, err := imgplane.DecodeBinary(bytes.NewReader(data[:10])); err == nil {
		t.Error("truncated stream accepted")
	}
	if _, err := imgplane.DecodeBinary(bytes.NewReader([]byte("XXXXgarbage padding p"))); err == nil {
		t.Error("bad magic accepted")
	}
}
