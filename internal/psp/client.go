package psp

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"puppies/internal/core"
	"puppies/internal/imgplane"
	"puppies/internal/jpegc"
	"puppies/internal/servecache"
	"puppies/internal/transform"
)

// CachedResponse is one validated GET response held by a client-side
// validator cache: the body plus the strong ETag the server issued for it.
type CachedResponse struct {
	ETag string
	Body []byte
}

// NewValidatorCache returns a response cache suitable for Client.RespCache,
// budgeted to maxBytes of body bytes.
func NewValidatorCache(maxBytes int64) *servecache.Cache[CachedResponse] {
	return servecache.New[CachedResponse](maxBytes)
}

// Default client resilience knobs, overridden per Client field; the
// backoff cap is fixed.
const (
	defaultRequestTimeout = 30 * time.Second
	defaultMaxRetries     = 3
	defaultBackoffBase    = 100 * time.Millisecond
	backoffMax            = 5 * time.Second
)

// Client talks to a PSP over HTTP. Both senders (upload) and receivers
// (download, fetch transformed versions) use it.
//
// Every method takes a context.Context that bounds the whole call including
// retries. Each individual HTTP attempt additionally gets RequestTimeout.
// Idempotent requests (all GETs, and Upload via a client-generated
// Idempotency-Key) are retried on transient failure with exponential
// backoff plus jitter, honoring Retry-After. Failures are classified via
// the package sentinels (ErrRetryable, ErrNotFound, ErrCorrupt,
// ErrTooLarge).
type Client struct {
	// BaseURL is the PSP root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client

	// RequestTimeout bounds each HTTP attempt (not the whole retried
	// call). Zero means defaultRequestTimeout; negative disables it.
	RequestTimeout time.Duration
	// MaxRetries is the number of extra attempts after the first.
	// Zero means defaultMaxRetries; negative disables retries.
	MaxRetries int
	// BackoffBase is the first delay of the exponential backoff between
	// attempts (capped at 5s). Zero takes the package default.
	BackoffBase time.Duration
	// MaxResponseBytes caps how much of a response body the client will
	// read; a larger body yields ErrTooLarge rather than silent
	// truncation. Zero means DefaultMaxUpload.
	MaxResponseBytes int64

	// RespCache, when non-nil, enables conditional GETs: the client
	// remembers (ETag, body) per URL, revalidates with If-None-Match, and
	// serves 304 answers from the cache without re-downloading the body.
	// PSP image representations are immutable, so revalidation virtually
	// always short-circuits. Use NewValidatorCache to build one.
	RespCache *servecache.Cache[CachedResponse]

	// sleep is stubbed in tests to make backoff instantaneous.
	sleep func(ctx context.Context, d time.Duration) error

	rngOnce sync.Once
	rngMu   sync.Mutex
	rng     *mrand.Rand

	// Lifetime counters behind Stats(); load harnesses read them to build
	// their error taxonomy (how often the client was shed, how hard it had
	// to retry) without scraping logs.
	statAttempts          atomic.Uint64
	statRetries           atomic.Uint64
	statOverloaded        atomic.Uint64
	statRetryAfterHonored atomic.Uint64
	statExhausted         atomic.Uint64
}

// ClientStats is a snapshot of the client's lifetime resilience counters.
type ClientStats struct {
	// Attempts counts individual HTTP attempts, including retries.
	Attempts uint64 `json:"attempts"`
	// Retries counts attempts beyond the first per logical request.
	Retries uint64 `json:"retries"`
	// Overloaded counts HTTP 429 responses (server-side admission sheds).
	Overloaded uint64 `json:"overloaded"`
	// RetryAfterHonored counts backoff waits that used the server's exact
	// Retry-After value instead of the jittered exponential schedule.
	RetryAfterHonored uint64 `json:"retryAfterHonored"`
	// Exhausted counts logical requests that failed after all retries.
	Exhausted uint64 `json:"exhausted"`
}

// Stats snapshots the client's resilience counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Attempts:          c.statAttempts.Load(),
		Retries:           c.statRetries.Load(),
		Overloaded:        c.statOverloaded.Load(),
		RetryAfterHonored: c.statRetryAfterHonored.Load(),
		Exhausted:         c.statExhausted.Load(),
	}
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) requestTimeout() time.Duration {
	switch {
	case c.RequestTimeout > 0:
		return c.RequestTimeout
	case c.RequestTimeout < 0:
		return 0
	}
	return defaultRequestTimeout
}

func (c *Client) maxRetries() int {
	switch {
	case c.MaxRetries > 0:
		return c.MaxRetries
	case c.MaxRetries < 0:
		return 0
	}
	return defaultMaxRetries
}

func (c *Client) maxResponseBytes() int64 {
	if c.MaxResponseBytes > 0 {
		return c.MaxResponseBytes
	}
	return DefaultMaxUpload
}

// backoff returns the jittered exponential delay before attempt n (n >= 1).
func (c *Client) backoff(n int) time.Duration {
	base := c.BackoffBase
	if base <= 0 {
		base = defaultBackoffBase
	}
	d := base << (n - 1)
	if d > backoffMax || d <= 0 {
		d = backoffMax
	}
	c.rngOnce.Do(func() {
		var seed [8]byte
		_, _ = rand.Read(seed[:])
		var s int64
		for _, b := range seed {
			s = s<<8 | int64(b)
		}
		c.rng = mrand.New(mrand.NewSource(s))
	})
	c.rngMu.Lock()
	f := 0.5 + 0.5*c.rng.Float64() // full range [d/2, d]
	c.rngMu.Unlock()
	return time.Duration(float64(d) * f)
}

func (c *Client) sleepCtx(ctx context.Context, d time.Duration) error {
	if c.sleep != nil {
		return c.sleep(ctx, d)
	}
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// doOnce performs a single HTTP attempt and fully reads the body, reading
// one byte past MaxResponseBytes so oversized responses surface as
// ErrTooLarge instead of silently truncated bytes.
func (c *Client) doOnce(ctx context.Context, method, rawURL string, body []byte, header http.Header) ([]byte, error) {
	c.statAttempts.Add(1)
	attemptCtx := ctx
	var cancel context.CancelFunc
	if t := c.requestTimeout(); t > 0 {
		attemptCtx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(attemptCtx, method, rawURL, rd)
	if err != nil {
		return nil, err
	}
	for k, vs := range header {
		req.Header[k] = vs
	}
	// Conditional GET: revalidate a cached body instead of re-downloading.
	var cached CachedResponse
	var haveCached bool
	if method == http.MethodGet && c.RespCache != nil {
		if cached, haveCached = c.RespCache.Get(rawURL); haveCached {
			req.Header.Set("If-None-Match", cached.ETag)
		}
	}
	resp, err := c.http().Do(req)
	if err != nil {
		timedOut := attemptCtx.Err() != nil && ctx.Err() == nil
		return nil, classifyTransport(err, timedOut)
	}
	defer resp.Body.Close()
	limit := c.maxResponseBytes()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		timedOut := attemptCtx.Err() != nil && ctx.Err() == nil
		return nil, classifyTransport(err, timedOut)
	}
	if int64(len(respBody)) > limit {
		return nil, fmt.Errorf("%w: response exceeds %d bytes", ErrTooLarge, limit)
	}
	if resp.StatusCode == http.StatusNotModified && haveCached {
		return cached.Body, nil
	}
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode == http.StatusTooManyRequests {
			c.statOverloaded.Add(1)
		}
		return nil, &StatusError{
			Method:     method,
			Path:       req.URL.Path,
			Code:       resp.StatusCode,
			Body:       string(bytes.TrimSpace(respBody)),
			RetryAfter: ParseRetryAfter(resp.Header),
			Class:      resp.Header.Get(errorClassHeader),
		}
	}
	if method == http.MethodGet && c.RespCache != nil {
		if et := resp.Header.Get("ETag"); et != "" {
			c.RespCache.Add(rawURL, CachedResponse{ETag: et, Body: respBody},
				int64(len(respBody)+len(et)+len(rawURL)))
		}
	}
	return respBody, nil
}

// do runs an idempotent request with retries. body may be nil for GETs; it
// is replayed from scratch on every attempt.
func (c *Client) do(ctx context.Context, method, rawURL string, body []byte, header http.Header) ([]byte, error) {
	attempts := c.maxRetries() + 1
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			c.statRetries.Add(1)
			// A server-named Retry-After is honored exactly: the server
			// knows when capacity frees up, so adding jitter on top would
			// only delay the retry past the window it was promised.
			wait := c.backoff(attempt - 1)
			var se *StatusError
			if errors.As(lastErr, &se) && se.RetryAfter > 0 {
				wait = se.RetryAfter
				c.statRetryAfterHonored.Add(1)
			}
			if err := c.sleepCtx(ctx, wait); err != nil {
				c.statExhausted.Add(1)
				return nil, fmt.Errorf("psp: giving up after %d attempts: %w (then %v)", attempt-1, lastErr, err)
			}
		}
		respBody, err := c.doOnce(ctx, method, rawURL, body, header)
		if err == nil {
			return respBody, nil
		}
		lastErr = err
		if !errors.Is(err, ErrRetryable) || ctx.Err() != nil {
			return nil, err
		}
	}
	c.statExhausted.Add(1)
	return nil, fmt.Errorf("psp: giving up after %d attempts: %w", attempts, lastErr)
}

// newIdempotencyKey generates the client-side key that makes Upload safe to
// retry: the server deduplicates stores that carry the same key.
func newIdempotencyKey() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to a time-derived key; uniqueness, not secrecy, is
		// what matters here.
		return fmt.Sprintf("ik-%d", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// Upload stores a perturbed image and its public data, returning the image
// ID. The request carries a fresh idempotency key, so transient failures
// are retried without risking duplicate stored images.
func (c *Client) Upload(ctx context.Context, img *jpegc.Image, pd *core.PublicData, opts jpegc.EncodeOptions) (string, error) {
	var imgBuf bytes.Buffer
	if err := img.Encode(&imgBuf, opts); err != nil {
		return "", fmt.Errorf("psp: encode image: %w", err)
	}
	params, err := pd.Encode()
	if err != nil {
		return "", fmt.Errorf("psp: encode params: %w", err)
	}
	body, err := json.Marshal(UploadRequest{Image: imgBuf.Bytes(), Params: params})
	if err != nil {
		return "", err
	}
	header := http.Header{
		"Content-Type":    {"application/json"},
		idempotencyHeader: {newIdempotencyKey()},
	}
	respBody, err := c.do(ctx, http.MethodPost, c.BaseURL+"/v1/images", body, header)
	if err != nil {
		return "", err
	}
	var resp UploadResponse
	if err := json.Unmarshal(respBody, &resp); err != nil {
		return "", &corruptError{fmt.Errorf("decode upload response: %w", err)}
	}
	if resp.ID == "" {
		return "", &corruptError{errors.New("server returned empty id")}
	}
	return resp.ID, nil
}

// ListImages returns every stored image ID (sorted), the recovery-audit
// view of the PSP: after a server restart, each listed ID is fetchable.
func (c *Client) ListImages(ctx context.Context) ([]string, error) {
	body, err := c.do(ctx, http.MethodGet, c.BaseURL+"/v1/images", nil, nil)
	if err != nil {
		return nil, err
	}
	var resp ListResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, &corruptError{fmt.Errorf("decode list response: %w", err)}
	}
	return resp.IDs, nil
}

// FetchImage downloads the stored (untransformed) perturbed image.
func (c *Client) FetchImage(ctx context.Context, id string) (*jpegc.Image, error) {
	body, err := c.do(ctx, http.MethodGet, c.BaseURL+"/v1/images/"+url.PathEscape(id), nil, nil)
	if err != nil {
		return nil, err
	}
	img, err := jpegc.Decode(bytes.NewReader(body))
	if err != nil {
		return nil, &corruptError{err}
	}
	return img, nil
}

// FetchParams downloads and validates the image's public data.
func (c *Client) FetchParams(ctx context.Context, id string) (*core.PublicData, error) {
	body, err := c.do(ctx, http.MethodGet, c.BaseURL+"/v1/images/"+url.PathEscape(id)+"/params", nil, nil)
	if err != nil {
		return nil, err
	}
	pd, err := core.DecodePublicData(body)
	if err != nil {
		return nil, &corruptError{err}
	}
	return pd, nil
}

func specQuery(spec transform.Spec) (string, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	v := url.Values{}
	v.Set("spec", string(raw))
	return v.Encode(), nil
}

// FetchTransformed asks the PSP to apply the spec and return the re-encoded
// JPEG.
func (c *Client) FetchTransformed(ctx context.Context, id string, spec transform.Spec) (*jpegc.Image, error) {
	q, err := specQuery(spec)
	if err != nil {
		return nil, err
	}
	body, err := c.do(ctx, http.MethodGet,
		c.BaseURL+"/v1/images/"+url.PathEscape(id)+"/transformed?"+q, nil, nil)
	if err != nil {
		return nil, err
	}
	img, err := jpegc.Decode(bytes.NewReader(body))
	if err != nil {
		return nil, &corruptError{err}
	}
	return img, nil
}

// FetchTransformedPixels asks the PSP to apply the spec and return lossless
// transformed pixels (the high-fidelity delivery path).
func (c *Client) FetchTransformedPixels(ctx context.Context, id string, spec transform.Spec) (*imgplane.Image, error) {
	q, err := specQuery(spec)
	if err != nil {
		return nil, err
	}
	body, err := c.do(ctx, http.MethodGet,
		c.BaseURL+"/v1/images/"+url.PathEscape(id)+"/pixels?"+q, nil, nil)
	if err != nil {
		return nil, err
	}
	img, err := imgplane.DecodeBinary(bytes.NewReader(body))
	if err != nil {
		return nil, &corruptError{err}
	}
	return img, nil
}

// Health probes GET /v1/healthz and returns the server's self-report.
func (c *Client) Health(ctx context.Context) (*HealthResponse, error) {
	body, err := c.do(ctx, http.MethodGet, c.BaseURL+"/v1/healthz", nil, nil)
	if err != nil {
		return nil, err
	}
	var h HealthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		return nil, &corruptError{err}
	}
	return &h, nil
}

// TransformedImage is the result of FetchTransformedGraceful: exactly one
// of JPEG or Pixels is set.
type TransformedImage struct {
	// JPEG holds the coefficient-domain result from /transformed.
	JPEG *jpegc.Image
	// Pixels holds the lossless planar result from the /pixels fallback.
	Pixels *imgplane.Image
	// Degraded is true when the /transformed payload was unusable and
	// the client fell back to /pixels.
	Degraded bool
}

// FetchTransformedGraceful fetches the transformed JPEG and degrades
// gracefully: if the JPEG payload is corrupt (fails to decode after
// retries) or the caller's integrity check rejects it, the client re-fetches
// through the lossless /pixels route before surfacing an error. check may
// be nil. Specs with no pixel form (compression) cannot fall back.
func (c *Client) FetchTransformedGraceful(ctx context.Context, id string, spec transform.Spec, check func(*jpegc.Image) error) (*TransformedImage, error) {
	img, err := c.FetchTransformed(ctx, id, spec)
	if err == nil && check != nil {
		if cerr := check(img); cerr != nil {
			err = &corruptError{fmt.Errorf("integrity check: %w", cerr)}
		}
	}
	if err == nil {
		return &TransformedImage{JPEG: img}, nil
	}
	if !errors.Is(err, ErrCorrupt) || spec.Op == transform.OpCompress {
		return nil, err
	}
	pix, perr := c.FetchTransformedPixels(ctx, id, spec)
	if perr != nil {
		return nil, fmt.Errorf("psp: transformed JPEG corrupt (%v); pixels fallback: %w", err, perr)
	}
	return &TransformedImage{Pixels: pix, Degraded: true}, nil
}

// SearchByID runs k-NN search for a stored image: GET /v1/search?id=X&k=K.
// The stored image itself is normally rank 1 at distance 0.
func (c *Client) SearchByID(ctx context.Context, id string, k int) (*SearchResponse, error) {
	u := c.BaseURL + "/v1/search?id=" + url.QueryEscape(id) + "&k=" + strconv.Itoa(k)
	body, err := c.do(ctx, http.MethodGet, u, nil, nil)
	if err != nil {
		return nil, err
	}
	return decodeSearchResponse(body)
}

// Search runs k-NN search by image bytes: POST /v1/search with an
// UploadRequest document, so the query's public parameters shape the
// signature exactly as they would at upload. params may be nil.
func (c *Client) Search(ctx context.Context, image []byte, params json.RawMessage, k int) (*SearchResponse, error) {
	body, err := json.Marshal(UploadRequest{Image: image, Params: params})
	if err != nil {
		return nil, err
	}
	u := c.BaseURL + "/v1/search?k=" + strconv.Itoa(k)
	header := http.Header{"Content-Type": {"application/json"}}
	respBody, err := c.do(ctx, http.MethodPost, u, body, header)
	if err != nil {
		return nil, err
	}
	return decodeSearchResponse(respBody)
}

func decodeSearchResponse(body []byte) (*SearchResponse, error) {
	var resp SearchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, &corruptError{fmt.Errorf("decode search response: %w", err)}
	}
	return &resp, nil
}
