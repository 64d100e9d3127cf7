package psp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"puppies/internal/blobstore"
	"puppies/internal/core"
	"puppies/internal/jpegc"
)

// TestStoresRefuseDuplicateID runs the Store contract's duplicate-ID rule
// over both implementations: a second Put of a stored ID fails and the
// first bytes stay, while a retry under an assigned key still answers the
// original ID.
func TestStoresRefuseDuplicateID(t *testing.T) {
	stores := []struct {
		name string
		open func(t *testing.T) Store
	}{
		{"mem", func(t *testing.T) Store { return NewMemStore() }},
		{"blob", func(t *testing.T) Store {
			st, _, err := blobstore.Open(t.TempDir(), blobstore.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = st.Close() }) // nothing left to flush at test end
			return st
		}},
	}
	for _, tt := range stores {
		t.Run(tt.name, func(t *testing.T) {
			st := tt.open(t)
			if _, err := st.Put("x", []byte("a"), nil, "k"); err != nil {
				t.Fatal(err)
			}
			if id, err := st.Put("x", []byte("b"), nil, ""); err == nil {
				t.Fatalf("second Put of x = %q, nil; want an error", id)
			}
			if id, err := st.Put("x", []byte("b"), nil, "k"); err != nil || id != "x" {
				t.Fatalf("retry under key k = %q, %v; want x, nil", id, err)
			}
			jpeg, _, ok, err := st.Get("x")
			if err != nil || !ok || string(jpeg) != "a" {
				t.Fatalf("Get(x) = %q, %v, %v; want the first bytes", jpeg, ok, err)
			}
			if st.Len() != 1 {
				t.Fatalf("Len = %d, want 1", st.Len())
			}
		})
	}
}

func TestMemStoreKeyIndexLRUCap(t *testing.T) {
	m := NewMemStoreBounded(3)
	for i := 0; i < 3; i++ {
		if _, err := m.Put(fmt.Sprintf("id%d", i), []byte{1}, nil, fmt.Sprintf("k%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// A lookup does not refresh a key: eviction is oldest-first, the blob
	// store's rule, so k0 is the victim even though it was just read.
	if _, ok := m.IDForKey("k0"); !ok {
		t.Fatal("k0 missing")
	}
	if _, err := m.Put("id3", []byte{1}, nil, "k3"); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.IDForKey("k0"); ok {
		t.Error("oldest key k0 survived past the cap")
	}
	for _, k := range []string{"k1", "k2", "k3"} {
		if _, ok := m.IDForKey(k); !ok {
			t.Errorf("newer key %s evicted", k)
		}
	}
	if got := m.KeyCount(); got != 3 {
		t.Errorf("KeyCount = %d, want 3", got)
	}
	// Images themselves are never evicted — only the dedupe index is.
	if m.Len() != 4 {
		t.Errorf("Len = %d, want 4", m.Len())
	}
}

func TestMemStoreZeroCapDisablesIndex(t *testing.T) {
	m := NewMemStoreBounded(0)
	if _, err := m.Put("a", []byte{1}, nil, "key"); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.IDForKey("key"); ok {
		t.Fatal("disabled index resolved a key")
	}
	if m.Len() != 1 {
		t.Fatal("image not stored")
	}
}

// uploadRaw posts an upload body directly, bypassing Client-side encoding,
// and returns the assigned ID.
func uploadRaw(t *testing.T, baseURL string, jpeg, params []byte) string {
	t.Helper()
	body, err := json.Marshal(UploadRequest{Image: jpeg, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v1/images", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: HTTP %d: %s", resp.StatusCode, raw)
	}
	var up UploadResponse
	if err := json.Unmarshal(raw, &up); err != nil {
		t.Fatal(err)
	}
	return up.ID
}

// TestParamsVersionRoundTrip drives the versioned public-parameter envelope
// through a real client/server round trip: Upload stamps the current
// version, FetchParams accepts it, and a future-version document fetched
// from the (opaque-storage) PSP surfaces the typed ErrUnsupportedVersion.
func TestParamsVersionRoundTrip(t *testing.T) {
	client, _, perturbed, pd, _ := fixture(t)
	ctx := context.Background()

	id, err := client.Upload(ctx, perturbed, pd, jpegc.EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.FetchParams(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != core.PublicDataVersion {
		t.Fatalf("fetched params version = %d, want %d", got.Version, core.PublicDataVersion)
	}
}

func TestParamsFutureVersionRejectedTyped(t *testing.T) {
	srv := httptest.NewServer(NewServer().Handler())
	t.Cleanup(srv.Close)
	client := &Client{BaseURL: srv.URL}
	ctx := context.Background()

	// Hand-craft a future-version params document. The PSP stores params
	// opaquely (privacy by design), so the version gate lives client-side.
	_, _, perturbed, pd, _ := fixture(t)
	raw, err := pd.Encode()
	if err != nil {
		t.Fatal(err)
	}
	future := bytes.Replace(raw, []byte(`"v":1`), []byte(`"v":999`), 1)
	if bytes.Equal(future, raw) {
		t.Fatal("failed to bump version in fixture params")
	}
	var buf bytes.Buffer
	if err := perturbed.Encode(&buf, jpegc.EncodeOptions{}); err != nil {
		t.Fatal(err)
	}
	id := uploadRaw(t, srv.URL, buf.Bytes(), future)

	_, err = client.FetchParams(ctx, id)
	if !errors.Is(err, core.ErrUnsupportedVersion) {
		t.Fatalf("FetchParams on future version = %v, want ErrUnsupportedVersion", err)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("future-version error should still classify as ErrCorrupt for fallback logic, got %v", err)
	}
}
