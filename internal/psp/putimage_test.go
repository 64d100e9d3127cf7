package psp

import (
	"bytes"
	"encoding/json"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"net/textproto"
	"net/url"
	"strings"
	"testing"
)

func doPutImage(t *testing.T, h http.Handler, id string, req UploadRequest, key string) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPut, "/v1/images/"+url.PathEscape(id), bytes.NewReader(body))
	r.Header.Set("Content-Type", "application/json")
	if key != "" {
		r.Header.Set(idempotencyHeader, key)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	return rec
}

func decodeID(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	var ur UploadResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ur); err != nil {
		t.Fatalf("decode upload response: %v (%s)", err, rec.Body.String())
	}
	return ur.ID
}

func TestPutImageStoresUnderCallerID(t *testing.T) {
	srv := NewServer()
	h := srv.Handler()
	jpeg := testJPEG(t, 32, 24)

	rec := doPutImage(t, h, "replica-1", UploadRequest{Image: jpeg}, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("PUT new id: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	if got := decodeID(t, rec); got != "replica-1" {
		t.Fatalf("PUT answered id %q, want caller-chosen %q", got, "replica-1")
	}
	got := doGet(h, "/v1/images/replica-1", nil)
	if got.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), jpeg) {
		t.Fatalf("GET after PUT: HTTP %d, %d bytes", got.Code, got.Body.Len())
	}
}

func TestPutImageIdempotentOnIdenticalBytes(t *testing.T) {
	srv := NewServer()
	h := srv.Handler()
	jpeg := testJPEG(t, 32, 24)
	params := json.RawMessage(`{"n":1}`)

	for i := 0; i < 2; i++ {
		rec := doPutImage(t, h, "img-a", UploadRequest{Image: jpeg, Params: params}, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("PUT attempt %d: HTTP %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	if srv.Len() != 1 {
		t.Fatalf("store holds %d images after idempotent re-PUT, want 1", srv.Len())
	}
	// Absent, empty, and JSON-null params documents all mean "no params":
	// a replica fetched via /params (which serves "null") must re-PUT
	// cleanly.
	rec := doPutImage(t, h, "img-b", UploadRequest{Image: jpeg}, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("PUT img-b: HTTP %d", rec.Code)
	}
	rec = doPutImage(t, h, "img-b", UploadRequest{Image: jpeg, Params: json.RawMessage("null")}, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("re-PUT with explicit null params: HTTP %d, want 200", rec.Code)
	}
}

func TestPutImageConflictNeverOverwrites(t *testing.T) {
	srv := NewServer()
	h := srv.Handler()
	jpegA := testJPEG(t, 32, 24)
	jpegB := testJPEG(t, 48, 32)

	if rec := doPutImage(t, h, "img-c", UploadRequest{Image: jpegA}, ""); rec.Code != http.StatusOK {
		t.Fatalf("seed PUT: HTTP %d", rec.Code)
	}
	rec := doPutImage(t, h, "img-c", UploadRequest{Image: jpegB}, "")
	if rec.Code != http.StatusConflict {
		t.Fatalf("PUT different bytes: HTTP %d, want 409", rec.Code)
	}
	// Same bytes but different params is also a conflict.
	rec = doPutImage(t, h, "img-c", UploadRequest{Image: jpegA, Params: json.RawMessage(`{"x":2}`)}, "")
	if rec.Code != http.StatusConflict {
		t.Fatalf("PUT different params: HTTP %d, want 409", rec.Code)
	}
	// The stored record is untouched.
	got := doGet(h, "/v1/images/img-c", nil)
	if !bytes.Equal(got.Body.Bytes(), jpegA) {
		t.Fatal("conflicting PUT overwrote the stored bytes")
	}
}

func TestPutImageValidation(t *testing.T) {
	srv := NewServer()
	h := srv.Handler()
	jpeg := testJPEG(t, 32, 24)

	badIDs := []string{".hidden", "a b", "x*y", strings.Repeat("z", 101), "a/../b"}
	for _, id := range badIDs {
		rec := doPutImage(t, h, id, UploadRequest{Image: jpeg}, "")
		// Path traversal characters may be rejected by the mux (404/301)
		// before reaching the handler; anything but success is acceptable,
		// plain unsafe names must be a 400.
		if rec.Code == http.StatusOK {
			t.Errorf("PUT accepted unsafe id %q", id)
		}
		if !strings.ContainsAny(id, "/ ") && rec.Code != http.StatusBadRequest {
			t.Errorf("PUT id %q: HTTP %d, want 400", id, rec.Code)
		}
	}

	if rec := doPutImage(t, h, "img-d", UploadRequest{Image: []byte("nope")}, ""); rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("PUT non-JPEG: HTTP %d, want 422", rec.Code)
	}
	if rec := doPutImage(t, h, "img-d", UploadRequest{}, ""); rec.Code != http.StatusBadRequest {
		t.Errorf("PUT empty image: HTTP %d, want 400", rec.Code)
	}
}

func TestPutImageHonorsIdempotencyKey(t *testing.T) {
	srv := NewServer()
	h := srv.Handler()
	jpeg := testJPEG(t, 32, 24)

	rec := doPutImage(t, h, "img-e", UploadRequest{Image: jpeg}, "put-key-1")
	if rec.Code != http.StatusOK {
		t.Fatalf("PUT with key: HTTP %d", rec.Code)
	}
	// A replay under the same key answers the canonical ID even if the
	// caller aims at a different one — identical to POST's key semantics.
	rec = doPutImage(t, h, "img-other", UploadRequest{Image: jpeg}, "put-key-1")
	if rec.Code != http.StatusOK || decodeID(t, rec) != "img-e" {
		t.Fatalf("key replay: HTTP %d id %q, want 200 img-e", rec.Code, decodeID(t, rec))
	}
	if srv.Len() != 1 {
		t.Fatalf("store holds %d images, want 1", srv.Len())
	}
}

// TestReusedIdempotencyKeyWithDifferentBytesConflicts checks that a key
// already bound to a stored image acknowledges only those bytes: POST, PUT
// and a batch item carrying the key with a different image answer 409 and
// store nothing, while an identical replay still answers the original ID.
func TestReusedIdempotencyKeyWithDifferentBytesConflicts(t *testing.T) {
	srv := NewServer()
	h := srv.Handler()
	a, b := testJPEG(t, 32, 24), testJPEG(t, 40, 24)
	post := func(img []byte) *httptest.ResponseRecorder {
		body, err := json.Marshal(UploadRequest{Image: img})
		if err != nil {
			t.Fatal(err)
		}
		r := httptest.NewRequest(http.MethodPost, "/v1/images", bytes.NewReader(body))
		r.Header.Set("Content-Type", "application/json")
		r.Header.Set(idempotencyHeader, "k1")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		return rec
	}
	batch := func(img []byte) BatchResult {
		var buf bytes.Buffer
		mw := multipart.NewWriter(&buf)
		hdr := textproto.MIMEHeader{"Content-Type": {"image/jpeg"}, idempotencyHeader: {"k1"}}
		w, err := mw.CreatePart(hdr)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = w.Write(img)
		_ = mw.Close()
		r := httptest.NewRequest(http.MethodPost, "/v1/images:batch", &buf)
		r.Header.Set("Content-Type", mw.FormDataContentType())
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		var br BatchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil || len(br.Results) != 1 {
			t.Fatalf("batch: HTTP %d %s", rec.Code, rec.Body.String())
		}
		return br.Results[0]
	}

	rec := post(a)
	if rec.Code != http.StatusOK {
		t.Fatalf("first POST: HTTP %d", rec.Code)
	}
	id := decodeID(t, rec)

	if rec := post(b); rec.Code != http.StatusConflict {
		t.Errorf("POST of other bytes under the key: HTTP %d %s, want 409", rec.Code, rec.Body.String())
	}
	if rec := doPutImage(t, h, "other", UploadRequest{Image: b}, "k1"); rec.Code != http.StatusConflict {
		t.Errorf("PUT of other bytes under the key: HTTP %d %s, want 409", rec.Code, rec.Body.String())
	}
	if res := batch(b); res.Status != http.StatusConflict || res.ID != "" {
		t.Errorf("batch item of other bytes under the key: %+v, want 409", res)
	}
	if srv.Len() != 1 {
		t.Errorf("store holds %d images, want 1", srv.Len())
	}
	if got := doGet(h, "/v1/images/"+id, nil); !bytes.Equal(got.Body.Bytes(), a) {
		t.Errorf("GET %s no longer returns the first image", id)
	}

	// Identical replays stay idempotent on every route.
	if rec := post(a); rec.Code != http.StatusOK || decodeID(t, rec) != id {
		t.Errorf("POST replay: HTTP %d %s, want 200 %s", rec.Code, rec.Body.String(), id)
	}
	if rec := doPutImage(t, h, "other", UploadRequest{Image: a}, "k1"); rec.Code != http.StatusOK || decodeID(t, rec) != id {
		t.Errorf("PUT replay: HTTP %d %s, want 200 %s", rec.Code, rec.Body.String(), id)
	}
	if res := batch(a); res.ID != id {
		t.Errorf("batch replay: %+v, want id %s", res, id)
	}
}

func TestHealthzDraining(t *testing.T) {
	srv := NewServer()
	h := srv.Handler()
	jpeg := testJPEG(t, 32, 24)
	storeImage(t, srv.st(), "img-f", jpeg)

	if rec := doGet(h, "/v1/healthz", nil); rec.Code != http.StatusOK {
		t.Fatalf("healthz before drain: HTTP %d", rec.Code)
	}

	srv.SetDraining(true)
	rec := doGet(h, "/v1/healthz", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: HTTP %d, want 503", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want %q", got, "1")
	}
	var hr HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "draining" {
		t.Fatalf("status %q, want draining", hr.Status)
	}
	// Draining only redirects new traffic away; data routes keep serving.
	if got := doGet(h, "/v1/images/img-f", nil); got.Code != http.StatusOK {
		t.Fatalf("image GET while draining: HTTP %d, want 200", got.Code)
	}

	srv.SetDraining(false)
	if rec := doGet(h, "/v1/healthz", nil); rec.Code != http.StatusOK {
		t.Fatalf("healthz after undrain: HTTP %d", rec.Code)
	}
}
