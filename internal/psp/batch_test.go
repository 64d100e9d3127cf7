package psp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"net/textproto"
	"strings"
	"testing"

	"puppies/internal/jpegc"
	"puppies/internal/spine"
)

// testJPEGBytes encodes a small valid JPEG for upload bodies.
func testJPEGBytes(t *testing.T, w, h int) []byte {
	t.Helper()
	img, err := jpegc.FromPlanar(testPlanar(w, h), jpegc.Options{Quality: 80})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := img.Encode(&buf, jpegc.EncodeOptions{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func batchServer(t *testing.T, s *Server) (*httptest.Server, *Client) {
	t.Helper()
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return srv, &Client{BaseURL: srv.URL}
}

func TestUploadBatchStoresAll(t *testing.T) {
	s := NewServer()
	srv, client := batchServer(t, s)
	_ = srv

	const n = 5
	items := make([]BatchUpload, n)
	for i := range items {
		items[i] = BatchUpload{
			Image:  testJPEGBytes(t, 32+8*i, 24),
			Params: json.RawMessage(`null`),
		}
	}
	results, err := client.UploadBatch(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	seen := map[string]bool{}
	for i, res := range results {
		if res.Error != "" || res.ID == "" {
			t.Fatalf("result %d: %+v", i, res)
		}
		if seen[res.ID] {
			t.Fatalf("duplicate id %q", res.ID)
		}
		seen[res.ID] = true
	}
	if s.Len() != n {
		t.Fatalf("store has %d images, want %d", s.Len(), n)
	}
	// Every returned ID is fetchable.
	for id := range seen {
		if _, err := client.FetchImage(context.Background(), id); err != nil {
			t.Fatalf("fetch %q: %v", id, err)
		}
	}
}

func TestUploadBatchEmpty(t *testing.T) {
	_, client := batchServer(t, NewServer())
	if _, err := client.UploadBatch(context.Background(), nil); err == nil {
		t.Fatal("client accepted empty batch")
	}
	// A multipart request with zero parts is a whole-batch 400, not an
	// empty result list.
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	_ = mw.Close()
	resp, err := http.Post(client.BaseURL+"/v1/images:batch", mw.FormDataContentType(), &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: got %d, want 400", resp.StatusCode)
	}
}

func TestUploadBatchOversizedPart(t *testing.T) {
	s := &Server{MaxUpload: 4 << 10}
	_, client := batchServer(t, s)

	small := testJPEGBytes(t, 16, 16)
	if int64(len(small)) > s.MaxUpload {
		t.Fatalf("fixture JPEG is %d bytes, exceeds the test cap itself", len(small))
	}
	items := []BatchUpload{
		{Image: small, Params: json.RawMessage(`null`)},
		{Image: bytes.Repeat([]byte{0xFF}, 8<<10)}, // oversized part
		{Image: small, Params: json.RawMessage(`null`)},
	}
	results, err := client.UploadBatch(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].ID == "" || results[2].ID == "" {
		t.Fatalf("good parts did not store: %+v", results)
	}
	if results[1].Status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized part: got %+v, want status 413", results[1])
	}
	if s.Len() != 2 {
		t.Fatalf("store has %d images, want 2", s.Len())
	}
}

func TestUploadBatchPerPartErrors(t *testing.T) {
	s := NewServer()
	_, client := batchServer(t, s)

	items := []BatchUpload{
		{Image: testJPEGBytes(t, 24, 24), Params: json.RawMessage(`null`)},
		{Image: []byte("not a jpeg")},
		{}, // empty image
	}
	results, err := client.UploadBatch(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].ID == "" {
		t.Fatalf("good part failed: %+v", results[0])
	}
	if results[1].Status != http.StatusUnprocessableEntity {
		t.Fatalf("bad JPEG part: got %+v, want 422", results[1])
	}
	if results[2].Status != http.StatusBadRequest {
		t.Fatalf("empty part: got %+v, want 400", results[2])
	}
	if s.Len() != 1 {
		t.Fatalf("store has %d images, want 1", s.Len())
	}
}

func TestUploadBatchDuplicateIdempotencyKeys(t *testing.T) {
	s := NewServer()
	srv, _ := batchServer(t, s)

	// Hand-roll the multipart body so two parts share one key: the client
	// API always generates distinct keys, but retried or merged batches can
	// legitimately repeat them, and both parts must converge on one ID.
	img := testJPEGBytes(t, 24, 24)
	body, _ := json.Marshal(UploadRequest{Image: img})
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for i := 0; i < 2; i++ {
		hdr := make(textproto.MIMEHeader)
		hdr.Set("Content-Type", "application/json")
		hdr.Set("Idempotency-Key", "same-key")
		w, err := mw.CreatePart(hdr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(body); err != nil {
			t.Fatal(err)
		}
	}
	_ = mw.Close()

	resp, err := http.Post(srv.URL+"/v1/images:batch", mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("batch: %d: %s", resp.StatusCode, b)
	}
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(br.Results))
	}
	if br.Results[0].ID == "" || br.Results[0].ID != br.Results[1].ID {
		t.Fatalf("duplicate keys did not converge: %+v", br.Results)
	}
	if s.Len() != 1 {
		t.Fatalf("store has %d images, want 1 (dedupe)", s.Len())
	}
}

func TestUploadBatchClientAbortMidStream(t *testing.T) {
	s := NewServer()
	srv, client := batchServer(t, s)

	// Open a raw connection, send a truncated multipart body, and cut the
	// stream mid-part. The server must neither wedge nor count the torn
	// part; the store keeps only fully received parts at most.
	img := testJPEGBytes(t, 24, 24)
	body, _ := json.Marshal(UploadRequest{Image: img})
	var full bytes.Buffer
	mw := multipart.NewWriter(&full)
	for i := 0; i < 3; i++ {
		hdr := make(textproto.MIMEHeader)
		hdr.Set("Content-Type", "application/json")
		w, _ := mw.CreatePart(hdr)
		_, _ = w.Write(body)
	}
	_ = mw.Close()
	cut := full.Len() / 2 // mid-second-part

	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/images:batch",
		io.NopCloser(&abortReader{data: full.Bytes()[:cut]}))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", mw.FormDataContentType())
	req.ContentLength = int64(full.Len()) // promise more than we send
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		resp.Body.Close()
	}

	// The server stays fully serviceable afterwards.
	results, err := client.UploadBatch(context.Background(),
		[]BatchUpload{{Image: img, Params: json.RawMessage(`null`)}})
	if err != nil {
		t.Fatalf("upload after aborted batch: %v", err)
	}
	if results[0].ID == "" {
		t.Fatalf("upload after aborted batch: %+v", results[0])
	}
}

// abortReader serves its data then fails, simulating a client whose
// connection died mid-upload.
type abortReader struct {
	data []byte
	off  int
}

func (r *abortReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, fmt.Errorf("connection torn down")
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

func TestUploadBatchTooManyParts(t *testing.T) {
	srv, _ := batchServer(t, NewServer())
	pr, pw := io.Pipe()
	mw := multipart.NewWriter(pw)
	go func() {
		for i := 0; i <= spine.BatchMaxParts; i++ {
			hdr := make(textproto.MIMEHeader)
			hdr.Set("Content-Type", "application/json")
			w, err := mw.CreatePart(hdr)
			if err == nil {
				_, err = w.Write([]byte(`{}`))
			}
			if err != nil {
				_ = pw.CloseWithError(err)
				return
			}
		}
		_ = pw.CloseWithError(mw.Close())
	}()
	resp, err := http.Post(srv.URL+"/v1/images:batch", mw.FormDataContentType(), pr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversize part count: got %d, want 400", resp.StatusCode)
	}
}

func TestUploadBatchIdempotentRetry(t *testing.T) {
	// A full batch retry (same client keys) must return the same IDs and
	// store nothing new — the contract that makes whole-batch retry safe.
	s := NewServer()
	srv, _ := batchServer(t, s)

	img := testJPEGBytes(t, 24, 24)
	body, _ := json.Marshal(UploadRequest{Image: img})
	send := func() BatchResponse {
		var buf bytes.Buffer
		mw := multipart.NewWriter(&buf)
		hdr := make(textproto.MIMEHeader)
		hdr.Set("Content-Type", "application/json")
		hdr.Set("Idempotency-Key", "retry-key")
		w, _ := mw.CreatePart(hdr)
		_, _ = w.Write(body)
		_ = mw.Close()
		resp, err := http.Post(srv.URL+"/v1/images:batch", mw.FormDataContentType(), &buf)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var br BatchResponse
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			t.Fatal(err)
		}
		return br
	}
	first := send()
	second := send()
	if first.Results[0].ID == "" || first.Results[0].ID != second.Results[0].ID {
		t.Fatalf("retry diverged: %+v vs %+v", first.Results, second.Results)
	}
	if s.Len() != 1 {
		t.Fatalf("store has %d images, want 1", s.Len())
	}
}

func TestUploadBatchMatchesSingleUpload(t *testing.T) {
	// The batch route and POST /v1/images share storeOne; a body rejected
	// by one must be rejected identically by the other.
	_, client := batchServer(t, NewServer())
	bad := []BatchUpload{{Image: []byte("junk")}}
	results, err := client.UploadBatch(context.Background(), bad)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Status != http.StatusUnprocessableEntity {
		t.Fatalf("batch: %+v, want 422", results[0])
	}
	body, _ := json.Marshal(UploadRequest{Image: []byte("junk")})
	resp, err := http.Post(client.BaseURL+"/v1/images", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("single: %d, want 422", resp.StatusCode)
	}
	single, _ := io.ReadAll(resp.Body)
	if strings.TrimSpace(string(single)) != results[0].Error {
		t.Fatalf("error text diverged: single %q vs batch %q", strings.TrimSpace(string(single)), results[0].Error)
	}
}

func TestUploadBatchRawParamsPairing(t *testing.T) {
	// Raw image parts pair with the params part that follows them; items
	// without one store no parameters.
	s := NewServer()
	srv, client := batchServer(t, s)

	params := json.RawMessage(`{"v":1,"roi":[0,0,8,8]}`)
	items := []BatchUpload{
		{Image: testJPEGBytes(t, 32, 24), Params: params},
		{Image: testJPEGBytes(t, 40, 24)},
	}
	results, err := client.UploadBatch(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Error != "" || res.ID == "" {
			t.Fatalf("result %d: %+v", i, res)
		}
	}
	// The paired params come back verbatim from the params route.
	resp, err := http.Get(srv.URL + "/v1/images/" + results[0].ID + "/params")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(bytes.TrimSpace(got), []byte(params)) {
		t.Fatalf("params round trip: status %d body %q, want %q", resp.StatusCode, got, params)
	}
	// The unpaired item stored none.
	resp2, err := http.Get(srv.URL + "/v1/images/" + results[1].ID + "/params")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode == http.StatusOK {
		body, _ := io.ReadAll(resp2.Body)
		if len(bytes.TrimSpace(body)) > 0 && string(bytes.TrimSpace(body)) != "null" {
			t.Fatalf("unpaired item has params: %q", body)
		}
	}
}

func TestUploadBatchParamsWithoutImage(t *testing.T) {
	// A params part with no preceding raw image part is an envelope error:
	// there is nothing to attach it to, so the whole batch is a 400.
	srv, _ := batchServer(t, NewServer())
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	hdr := make(textproto.MIMEHeader)
	hdr.Set("Content-Disposition", `form-data; name="params"`)
	hdr.Set("Content-Type", "application/json")
	w, _ := mw.CreatePart(hdr)
	_, _ = w.Write([]byte(`{"v":1}`))
	_ = mw.Close()
	resp, err := http.Post(srv.URL+"/v1/images:batch", mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("dangling params part: got %d, want 400", resp.StatusCode)
	}
}

func TestUploadBatchParamsAfterJSONPart(t *testing.T) {
	// A params part may only follow a raw image part; after a JSON item it
	// is equally dangling.
	srv, _ := batchServer(t, NewServer())
	img := testJPEGBytes(t, 24, 24)
	body, _ := json.Marshal(UploadRequest{Image: img})
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	hdr := make(textproto.MIMEHeader)
	hdr.Set("Content-Type", "application/json")
	w, _ := mw.CreatePart(hdr)
	_, _ = w.Write(body)
	hdr = make(textproto.MIMEHeader)
	hdr.Set("Content-Disposition", `form-data; name="params"`)
	hdr.Set("Content-Type", "application/json")
	w, _ = mw.CreatePart(hdr)
	_, _ = w.Write([]byte(`{"v":1}`))
	_ = mw.Close()
	resp, err := http.Post(srv.URL+"/v1/images:batch", mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("params after JSON item: got %d, want 400", resp.StatusCode)
	}
}
