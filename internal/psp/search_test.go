package psp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"puppies/internal/dataset"
	"puppies/internal/jpegc"
	"puppies/internal/transform"
)

// searchCorpus renders n distinct coefficient images (same generator as the
// searchidx invariance tests, so inter-image signature separation is known
// to be far above dedupDistance).
func searchCorpus(t *testing.T, n int) []*jpegc.Image {
	t.Helper()
	profile := dataset.PASCAL
	profile.W, profile.H = 336, 224
	gen, err := dataset.NewGenerator(profile, 7)
	if err != nil {
		t.Fatalf("dataset: %v", err)
	}
	imgs := make([]*jpegc.Image, n)
	for i := range imgs {
		imgs[i], err = jpegc.FromPlanar(gen.Item(i).Image, jpegc.Options{Quality: 85})
		if err != nil {
			t.Fatalf("FromPlanar %d: %v", i, err)
		}
	}
	return imgs
}

func encodeJPEG(t *testing.T, img *jpegc.Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := img.Encode(&buf, jpegc.EncodeOptions{Tables: jpegc.TablesOptimized}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func uploadBytes(t *testing.T, client *Client, image []byte) UploadResponse {
	t.Helper()
	body, err := json.Marshal(UploadRequest{Image: image})
	if err != nil {
		t.Fatal(err)
	}
	respBody, err := client.do(context.Background(), http.MethodPost, client.BaseURL+"/v1/images", body,
		http.Header{"Content-Type": {"application/json"}})
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	var resp UploadResponse
	if err := json.Unmarshal(respBody, &resp); err != nil {
		t.Fatalf("decode upload response: %v", err)
	}
	return resp
}

func searchFixture(t *testing.T, n int) (*Server, *Client, []*jpegc.Image, []string) {
	t.Helper()
	s := NewServer()
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	client := &Client{BaseURL: srv.URL}
	imgs := searchCorpus(t, n)
	ids := make([]string, n)
	for i, img := range imgs {
		resp := uploadBytes(t, client, encodeJPEG(t, img))
		if resp.ID == "" {
			t.Fatalf("upload %d: empty id", i)
		}
		ids[i] = resp.ID
	}
	return s, client, imgs, ids
}

func TestSearchByID(t *testing.T) {
	_, client, _, ids := searchFixture(t, 4)
	resp, err := client.SearchByID(context.Background(), ids[2], 3)
	if err != nil {
		t.Fatal(err)
	}
	// The index returns up to k: with a confident match in hand it does not
	// escalate to a full scan just to pad the list with far-away images.
	if len(resp.Results) == 0 || len(resp.Results) > 3 {
		t.Fatalf("got %d results, want 1..3", len(resp.Results))
	}
	if resp.Results[0].ID != ids[2] || resp.Results[0].Distance != 0 {
		t.Fatalf("top-1 = %+v, want %s at distance 0", resp.Results[0], ids[2])
	}
	if resp.Partial {
		t.Fatal("single-node search flagged partial")
	}
}

func TestSearchByBytesFindsRecompressedOriginal(t *testing.T) {
	_, client, imgs, ids := searchFixture(t, 4)
	// Query with a recompressed copy of image 1: not the stored bytes, but a
	// near-duplicate the signature must land on.
	recomp, err := transform.Apply(imgs[1], transform.Spec{Op: transform.OpCompress, Quality: 60})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Search(context.Background(), encodeJPEG(t, recomp), nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) == 0 || resp.Results[0].ID != ids[1] {
		t.Fatalf("top-1 = %+v, want %s", resp.Results, ids[1])
	}
	if resp.Results[0].Distance > dedupDistance {
		t.Fatalf("recompressed copy at distance %d, want <= %d", resp.Results[0].Distance, dedupDistance)
	}
}

func TestSearchUnknownID(t *testing.T) {
	_, client, _, _ := searchFixture(t, 1)
	_, err := client.SearchByID(context.Background(), "no-such-image", 5)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("err = %v, want 404 StatusError", err)
	}
}

func TestSearchRequiresQuery(t *testing.T) {
	_, client, _, _ := searchFixture(t, 1)
	resp, err := http.Get(client.BaseURL + "/v1/search")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("GET /v1/search with no query: %d, want 400", resp.StatusCode)
	}
}

func TestSearchStatzCounters(t *testing.T) {
	s, client, imgs, _ := searchFixture(t, 3)
	// One hit (a stored image is its own near-duplicate) ...
	if _, err := client.Search(context.Background(), encodeJPEG(t, imgs[0]), nil, 1); err != nil {
		t.Fatal(err)
	}
	st := s.Statz()
	if st.Search.Indexed != 3 {
		t.Fatalf("indexed = %d, want 3", st.Search.Indexed)
	}
	if st.Search.Queries != 1 || st.Search.Hits != 1 {
		t.Fatalf("queries/hits = %d/%d, want 1/1", st.Search.Queries, st.Search.Hits)
	}
	// ... and the search route records latency like any other route.
	if _, ok := st.LatencyNs[routeSearch]; !ok {
		t.Fatalf("statz has no %q latency histogram: %v", routeSearch, st.LatencyNs)
	}
}

func TestUploadDedupHint(t *testing.T) {
	_, client, imgs, ids := searchFixture(t, 3)
	recomp, err := transform.Apply(imgs[0], transform.Spec{Op: transform.OpCompress, Quality: 60})
	if err != nil {
		t.Fatal(err)
	}
	resp := uploadBytes(t, client, encodeJPEG(t, recomp))
	if resp.DuplicateOf != ids[0] {
		t.Fatalf("duplicateOf = %q (distance %d), want %s", resp.DuplicateOf, resp.Distance, ids[0])
	}
	// Distinct uploads carried no hint.
	for i, id := range ids {
		_ = i
		if id == "" {
			t.Fatal("missing id")
		}
	}
}

// TestPutDedupHint: PUT runs the upload pipeline POST does, so a replica
// PUT of a near-duplicate answers the same hint, and its decoded ID stays
// the caller's.
func TestPutDedupHint(t *testing.T) {
	s, _, imgs, ids := searchFixture(t, 3)
	recomp, err := transform.Apply(imgs[1], transform.Spec{Op: transform.OpCompress, Quality: 60})
	if err != nil {
		t.Fatal(err)
	}
	rec := doPutImage(t, s.Handler(), "replica-near", UploadRequest{Image: encodeJPEG(t, recomp)}, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("PUT: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	var ur UploadResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ur); err != nil {
		t.Fatal(err)
	}
	if ur.ID != "replica-near" || ur.DuplicateOf != ids[1] || ur.Distance > dedupDistance {
		t.Fatalf("PUT answered %+v, want id replica-near, duplicateOf %s", ur, ids[1])
	}
	// A distinct image carries no hint.
	rec = doPutImage(t, s.Handler(), "replica-far", UploadRequest{Image: testJPEG(t, 32, 24)}, "")
	var far UploadResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &far); err != nil || rec.Code != http.StatusOK || far.DuplicateOf != "" {
		t.Fatalf("distinct PUT: HTTP %d, %+v, %v", rec.Code, far, err)
	}
}

func TestBatchUploadIndexes(t *testing.T) {
	s := NewServer()
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	client := &Client{BaseURL: srv.URL}
	imgs := searchCorpus(t, 3)
	items := make([]BatchUpload, len(imgs))
	for i, img := range imgs {
		items[i] = BatchUpload{Image: encodeJPEG(t, img)}
	}
	results, err := client.UploadBatch(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Error != "" {
			t.Fatalf("item %d: %s", i, res.Error)
		}
		if res.DuplicateOf != "" {
			t.Fatalf("distinct item %d flagged duplicate of %s", i, res.DuplicateOf)
		}
	}
	if got := s.Statz().Search.Indexed; got != 3 {
		t.Fatalf("indexed = %d, want 3", got)
	}
	// A batch item duplicating a stored image carries the hint.
	dup, err := client.UploadBatch(context.Background(), items[:1])
	if err != nil {
		t.Fatal(err)
	}
	if dup[0].DuplicateOf != results[0].ID {
		t.Fatalf("duplicateOf = %q, want %s", dup[0].DuplicateOf, results[0].ID)
	}
}

func TestSearchLazyBackfill(t *testing.T) {
	// Images that predate the index (stored directly, never uploaded through
	// the handler) are backfilled on first query.
	s := NewServer()
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	client := &Client{BaseURL: srv.URL}
	imgs := searchCorpus(t, 2)
	var ids []string
	for i, img := range imgs {
		id := fmt.Sprintf("pre-existing-%d", i)
		if _, err := s.st().Put(id, encodeJPEG(t, img), nil, ""); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if got := s.Statz().Search.Indexed; got != 0 {
		t.Fatalf("indexed = %d before any query, want 0", got)
	}
	resp, err := client.SearchByID(context.Background(), ids[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].ID != ids[0] {
		t.Fatalf("backfilled search = %+v, want %s", resp.Results, ids[0])
	}
	if got := s.Statz().Search.Indexed; got != 1 {
		t.Fatalf("indexed = %d after one by-ID query, want 1", got)
	}
}
