package psp

import (
	"bytes"
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"puppies/internal/core"
	"puppies/internal/faults"
	"puppies/internal/jpegc"
	"puppies/internal/keys"
	"puppies/internal/transform"
)

// fastClient disables real backoff sleeps and records requested waits.
func fastClient(baseURL string, waits *[]time.Duration) *Client {
	c := &Client{BaseURL: baseURL}
	c.sleep = func(ctx context.Context, d time.Duration) error {
		if waits != nil {
			*waits = append(*waits, d)
		}
		return ctx.Err()
	}
	return c
}

// faultedFixture is like fixture but inserts the fault-injection middleware
// between the client and the PSP, and returns the raw *Server so tests can
// inspect the store.
func faultedFixture(t *testing.T, inj *faults.Injector) (*Client, *Server, *jpegc.Image, *jpegc.Image, *core.PublicData, *keys.Pair) {
	t.Helper()
	psp := NewServer()
	srv := httptest.NewServer(inj.Middleware(psp.Handler()))
	t.Cleanup(srv.Close)
	client := fastClient(srv.URL, nil)

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
	return client, psp, base, perturbed, pd, pair
}

// TestUploadSurvives503BurstWithoutDuplicates is acceptance (a): the upload
// rides out two injected 503s plus a stored-but-dropped response, and the
// idempotency key keeps the store at exactly one image.
func TestUploadSurvives503BurstWithoutDuplicates(t *testing.T) {
	inj := faults.New(101).Script(faults.MethodIs(http.MethodPost),
		faults.Fault{Kind: faults.Status503},
		faults.Fault{Kind: faults.Status503, RetryAfter: 10 * time.Millisecond},
		faults.Fault{Kind: faults.DropResponse},
	)
	client, psp, _, perturbed, pd, _ := faultedFixture(t, inj)

	id, err := client.Upload(context.Background(), perturbed, pd, jpegc.EncodeOptions{})
	if err != nil {
		t.Fatalf("upload under fault injection: %v", err)
	}
	if got := inj.Count(faults.Status503); got != 2 {
		t.Errorf("injected 503s = %d, want 2", got)
	}
	if got := inj.Count(faults.DropResponse); got != 1 {
		t.Errorf("injected dropped responses = %d, want 1", got)
	}
	if n := psp.Len(); n != 1 {
		t.Errorf("store holds %d images after retried upload, want 1 (no duplicates)", n)
	}
	// The returned ID must be the one the store actually holds.
	if _, err := client.FetchImage(context.Background(), id); err != nil {
		t.Errorf("fetch of retried upload: %v", err)
	}
}

// TestCorruptTransformedFallsBackToPixels is acceptance (b): the
// /transformed payload is silently truncated, the client degrades to the
// lossless /pixels route, and the keyed receiver still recovers the ROI
// exactly.
func TestCorruptTransformedFallsBackToPixels(t *testing.T) {
	inj := faults.New(202).Script(faults.PathContains("/transformed"),
		faults.Fault{Kind: faults.Truncate},
	)
	client, _, base, perturbed, pd, pair := faultedFixture(t, inj)
	ctx := context.Background()

	id, err := client.Upload(ctx, perturbed, pd, jpegc.EncodeOptions{Tables: jpegc.TablesOptimized})
	if err != nil {
		t.Fatal(err)
	}
	spec := transform.Spec{Op: transform.OpNone}
	res, err := client.FetchTransformedGraceful(ctx, id, spec, nil)
	if err != nil {
		t.Fatalf("graceful fetch under truncation: %v", err)
	}
	if !res.Degraded || res.Pixels == nil || res.JPEG != nil {
		t.Fatalf("expected pixels fallback, got degraded=%v jpeg=%v", res.Degraded, res.JPEG != nil)
	}
	if got := inj.Count(faults.Truncate); got != 1 {
		t.Errorf("injected truncations = %d, want 1", got)
	}

	pdT := *pd
	pdT.Transform = spec
	recovered, err := core.ReconstructPixels(res.Pixels, &pdT, map[string]*keys.Pair{pair.ID: pair})
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.ToPlanar()
	if err != nil {
		t.Fatal(err)
	}
	// The protected ROI must come back exactly (to 8-bit precision).
	roi := core.ROI{X: 16, Y: 8, W: 32, H: 24}
	for ci := range want.Planes {
		for y := roi.Y; y < roi.Y+roi.H; y++ {
			for x := roi.X; x < roi.X+roi.W; x++ {
				d := recovered.Planes[ci].At(x, y) - want.Planes[ci].At(x, y)
				if d < -0.5 || d > 0.5 {
					t.Fatalf("ROI pixel (%d,%d,%d) off by %g after fallback recovery", ci, x, y, d)
				}
			}
		}
	}
}

func TestGracefulFetchUsesIntegrityCheck(t *testing.T) {
	client, _, _, perturbed, pd, _ := faultedFixture(t, faults.New(1))
	ctx := context.Background()
	id, err := client.Upload(ctx, perturbed, pd, jpegc.EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// No faults at all: a rejecting integrity check alone must trigger
	// the pixels fallback.
	res, err := client.FetchTransformedGraceful(ctx, id, transform.Spec{Op: transform.OpNone},
		func(*jpegc.Image) error { return errors.New("synthetic integrity failure") })
	if err != nil {
		t.Fatalf("graceful fetch with failing check: %v", err)
	}
	if !res.Degraded || res.Pixels == nil {
		t.Error("failing integrity check did not degrade to pixels")
	}
	// A passing check keeps the coefficient-domain result.
	res, err = client.FetchTransformedGraceful(ctx, id, transform.Spec{Op: transform.OpNone}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || res.JPEG == nil {
		t.Error("healthy path degraded unnecessarily")
	}
}

func TestDroppedConnectionIsRetried(t *testing.T) {
	inj := faults.New(77).Script(faults.MethodIs(http.MethodGet),
		faults.Fault{Kind: faults.Drop},
	)
	// The connection is severed before the handler runs, so the GET must
	// be retried to succeed.
	psp := NewServer()
	srv := httptest.NewServer(inj.Middleware(psp.Handler()))
	t.Cleanup(srv.Close)
	client := fastClient(srv.URL, nil)

	base, err := jpegc.FromPlanar(testPlanar(32, 32), jpegc.Options{Quality: 80})
	if err != nil {
		t.Fatal(err)
	}
	id, err := client.Upload(context.Background(), base, &core.PublicData{W: 32, H: 32, Channels: 3}, jpegc.EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.FetchImage(context.Background(), id); err != nil {
		t.Errorf("fetch after injected reset: %v", err)
	}
	if got := inj.Count(faults.Drop); got != 1 {
		t.Errorf("injected drops = %d, want 1", got)
	}
}

func TestRetryHonorsRetryAfter(t *testing.T) {
	var calls int
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls == 1 {
			w.Header().Set("Retry-After", "0.25")
			http.Error(w, "busy", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"status":"ok","images":0}`))
	})
	srv := httptest.NewServer(handler)
	defer srv.Close()

	var waits []time.Duration
	client := fastClient(srv.URL, &waits)
	if _, err := client.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(waits) != 1 || waits[0] != 250*time.Millisecond {
		t.Errorf("backoff waits = %v, want exactly the served Retry-After of 250ms", waits)
	}
}

func TestRetriesGiveUpAndClassify(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "always down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	var waits []time.Duration
	client := fastClient(srv.URL, &waits)
	client.MaxRetries = 2
	_, err := client.FetchImage(context.Background(), "abc")
	if err == nil {
		t.Fatal("fetch from always-503 server succeeded")
	}
	if !errors.Is(err, ErrRetryable) {
		t.Errorf("exhausted retries not classified retryable: %v", err)
	}
	if len(waits) != 2 {
		t.Errorf("slept %d times, want 2 (MaxRetries)", len(waits))
	}
}

func TestTerminal4xxIsNotRetried(t *testing.T) {
	var calls int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		http.Error(w, "nope", http.StatusNotFound)
	}))
	defer srv.Close()
	client := fastClient(srv.URL, nil)
	_, err := client.FetchImage(context.Background(), "abc")
	if !errors.Is(err, ErrNotFound) {
		t.Errorf("404 not classified ErrNotFound: %v", err)
	}
	if errors.Is(err, ErrRetryable) {
		t.Errorf("404 classified retryable: %v", err)
	}
	if calls != 1 {
		t.Errorf("terminal 404 requested %d times, want 1", calls)
	}
}

func TestPerAttemptTimeoutIsRetryable(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-block:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	client := fastClient(srv.URL, nil)
	client.RequestTimeout = 30 * time.Millisecond
	client.MaxRetries = 1
	start := time.Now()
	_, err := client.FetchImage(context.Background(), "abc")
	if err == nil {
		t.Fatal("fetch from stalled server succeeded")
	}
	if !errors.Is(err, ErrRetryable) {
		t.Errorf("attempt timeout not classified retryable: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("timed-out fetch took %s", elapsed)
	}
}

func TestCallerCancellationStopsRetries(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	client := &Client{BaseURL: srv.URL, BackoffBase: 10 * time.Second}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := client.FetchImage(ctx, "abc")
	if err == nil {
		t.Fatal("fetch with cancelled context succeeded")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("cancelled fetch blocked for %s", elapsed)
	}
}

func TestResponseTooLargeIsTyped(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(bytes.Repeat([]byte("x"), 4096))
	}))
	defer srv.Close()
	client := fastClient(srv.URL, nil)
	client.MaxResponseBytes = 1024
	_, err := client.FetchImage(context.Background(), "abc")
	if !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized response error = %v, want ErrTooLarge", err)
	}
}

func TestCorruptPayloadIsTyped(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "image/jpeg")
		_, _ = w.Write([]byte("definitely not a jpeg"))
	}))
	defer srv.Close()
	client := fastClient(srv.URL, nil)
	_, err := client.FetchImage(context.Background(), "abc")
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("undecodable payload error = %v, want ErrCorrupt", err)
	}
	if errors.Is(err, ErrRetryable) {
		t.Errorf("corrupt payload classified retryable: %v", err)
	}
}

func TestHealthEndpoint(t *testing.T) {
	client, _, _, perturbed, pd, _ := faultedFixture(t, faults.New(1))
	ctx := context.Background()
	h, err := client.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Images != 0 {
		t.Errorf("empty server health = %+v", h)
	}
	if _, err := client.Upload(ctx, perturbed, pd, jpegc.EncodeOptions{}); err != nil {
		t.Fatal(err)
	}
	h, err = client.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Images != 1 {
		t.Errorf("health after upload reports %d images, want 1", h.Images)
	}
}

// TestServerErrorPaths is the table-driven sweep over the server's failure
// responses: malformed specs, unknown IDs on every GET route, and the
// oversized-upload 413.
func TestServerErrorPaths(t *testing.T) {
	psp := NewServer()
	psp.MaxUpload = 64 << 10
	srv := httptest.NewServer(psp.Handler())
	defer srv.Close()

	// Store one real image so the spec cases hit the parse path, not 404.
	base, err := jpegc.FromPlanar(testPlanar(32, 32), jpegc.Options{Quality: 80})
	if err != nil {
		t.Fatal(err)
	}
	client := fastClient(srv.URL, nil)
	id, err := client.Upload(context.Background(), base, &core.PublicData{W: 32, H: 32, Channels: 3}, jpegc.EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"malformed spec on transformed", "GET", "/v1/images/" + id + "/transformed?spec=%7Bnope", "", http.StatusBadRequest},
		{"malformed spec on pixels", "GET", "/v1/images/" + id + "/pixels?spec=%7Bnope", "", http.StatusBadRequest},
		{"unknown op in spec", "GET", "/v1/images/" + id + "/transformed?spec=%7B%22op%22%3A%22nonsense%22%7D", "", http.StatusBadRequest},
		{"unknown id image", "GET", "/v1/images/missing", "", http.StatusNotFound},
		{"unknown id params", "GET", "/v1/images/missing/params", "", http.StatusNotFound},
		{"unknown id transformed", "GET", "/v1/images/missing/transformed", "", http.StatusNotFound},
		{"unknown id pixels", "GET", "/v1/images/missing/pixels", "", http.StatusNotFound},
		{"oversized upload", "POST", "/v1/images", strings.Repeat("x", 128<<10), http.StatusRequestEntityTooLarge},
		{"empty image upload", "POST", "/v1/images", `{"image":"","params":null}`, http.StatusBadRequest},
		{"non-json upload", "POST", "/v1/images", "not json", http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var rd io.Reader
			if tc.body != "" {
				rd = strings.NewReader(tc.body)
			}
			req, err := http.NewRequest(tc.method, srv.URL+tc.path, rd)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
			}
		})
	}
}

// TestIdempotentUploadDirect exercises the key path at the HTTP layer: two
// identical POSTs with the same Idempotency-Key store once and return the
// same ID.
func TestIdempotentUploadDirect(t *testing.T) {
	psp := NewServer()
	srv := httptest.NewServer(psp.Handler())
	defer srv.Close()

	base, err := jpegc.FromPlanar(testPlanar(32, 32), jpegc.Options{Quality: 80})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := base.Encode(&buf, jpegc.EncodeOptions{}); err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"image":%q,"params":null}`, toBase64(buf.Bytes()))

	post := func() string {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/images", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Idempotency-Key", "fixed-key-1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("upload status %d: %s", resp.StatusCode, raw)
		}
		return string(raw)
	}
	first, second := post(), post()
	if first != second {
		t.Errorf("same idempotency key returned different responses: %q vs %q", first, second)
	}
	if n := psp.Len(); n != 1 {
		t.Errorf("store holds %d images, want 1", n)
	}
}

func toBase64(b []byte) string {
	return base64.StdEncoding.EncodeToString(b)
}
