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

// Reply is one fully buffered HTTP answer.
type Reply struct {
	Status int
	Header http.Header
	Body   []byte
}

// RetryAfter is the reply's Retry-After hint (see ParseRetryAfter); zero
// for a nil reply.
func (r *Reply) RetryAfter() time.Duration {
	if r == nil {
		return 0
	}
	return ParseRetryAfter(r.Header)
}

// Attempt is the one HTTP attempt behind every Client call and every
// cluster gateway shard hop. It sends body (nil for none) under a deadline
// of timeout (none when zero) and buffers the answer, reading one byte past
// limit so an oversized answer is ErrTooLarge, never truncated bytes. A
// transport failure comes back classified: retryable when the attempt's own
// deadline fired or the connection broke, unwrapped when ctx ended. A body
// that is an io.Closer is closed on every path, so a streaming producer
// behind it always stops.
func Attempt(ctx context.Context, hc *http.Client, timeout time.Duration, limit int64, method, rawURL string, body io.Reader, header http.Header) (*Reply, error) {
	if rc, ok := body.(io.Closer); ok {
		defer rc.Close()
	}
	attemptCtx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		attemptCtx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(attemptCtx, method, rawURL, body)
	if err != nil {
		return nil, err
	}
	for k, vs := range header {
		req.Header[k] = vs
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, classifyTransport(err, attemptCtx.Err() != nil && ctx.Err() == nil)
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		return nil, classifyTransport(err, attemptCtx.Err() != nil && ctx.Err() == nil)
	}
	if int64(len(respBody)) > limit {
		return nil, fmt.Errorf("%w: response exceeds %d bytes", ErrTooLarge, limit)
	}
	return &Reply{Status: resp.StatusCode, Header: resp.Header, Body: respBody}, nil
}

// attempt is one try of a client request: Attempt under the client's
// limits, plus its conditional GET, counters and typed status errors.
// body builds the request body for this try; nil sends none.
func (c *Client) attempt(ctx context.Context, method, rawURL string, header http.Header, body func() io.Reader) ([]byte, error) {
	c.statAttempts.Add(1)
	var rd io.Reader
	if body != nil {
		rd = body()
	}
	// Conditional GET: revalidate a cached body instead of re-downloading.
	var cached CachedResponse
	var haveCached bool
	if method == http.MethodGet && c.RespCache != nil {
		if cached, haveCached = c.RespCache.Get(rawURL); haveCached {
			h := http.Header{"If-None-Match": {cached.ETag}}
			for k, vs := range header {
				h[k] = vs
			}
			header = h
		}
	}
	reply, err := Attempt(ctx, c.http(), c.requestTimeout(), c.maxResponseBytes(), method, rawURL, rd, header)
	if err != nil {
		return nil, err
	}
	if reply.Status == http.StatusNotModified && haveCached {
		return cached.Body, nil
	}
	if reply.Status != http.StatusOK {
		if reply.Status == http.StatusTooManyRequests {
			c.statOverloaded.Add(1)
		}
		path := rawURL
		if u, err := url.Parse(rawURL); err == nil {
			path = u.Path
		}
		return nil, &StatusError{
			Method:     method,
			Path:       path,
			Code:       reply.Status,
			Body:       string(bytes.TrimSpace(reply.Body)),
			RetryAfter: reply.RetryAfter(),
			Class:      reply.Header.Get(errorClassHeader),
		}
	}
	if method == http.MethodGet && c.RespCache != nil {
		if et := reply.Header.Get("ETag"); et != "" {
			c.RespCache.Add(rawURL, CachedResponse{ETag: et, Body: reply.Body},
				int64(len(reply.Body)+len(et)+len(rawURL)))
		}
	}
	return reply.Body, nil
}

// retry is the client's one retry loop: it runs attempts until one
// succeeds, fails terminally, or MaxRetries is spent. body builds a fresh
// request body for every attempt (nil sends none).
func (c *Client) retry(ctx context.Context, method, rawURL string, header http.Header, body func() io.Reader) ([]byte, error) {
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
		respBody, err := c.attempt(ctx, method, rawURL, header, body)
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

// do runs an idempotent request with retries. body may be nil for GETs; it
// is replayed from scratch on every attempt.
func (c *Client) do(ctx context.Context, method, rawURL string, body []byte, header http.Header) ([]byte, error) {
	var replay func() io.Reader
	if body != nil {
		replay = func() io.Reader { return bytes.NewReader(body) }
	}
	return c.retry(ctx, method, rawURL, header, replay)
}

// call runs one request through do and decodes the answer with dec, the
// facade's decode[T] pattern: a body dec rejects is ErrCorrupt.
func call[T any](ctx context.Context, c *Client, method, path string, body []byte, header http.Header, dec func([]byte) (T, error)) (T, error) {
	raw, err := c.do(ctx, method, c.BaseURL+path, body, header)
	if err == nil {
		var v T
		if v, err = dec(raw); err == nil {
			return v, nil
		}
		err = &corruptError{err}
	}
	var zero T
	return zero, err
}

func decodeJSON[T any](b []byte) (*T, error) {
	v := new(T)
	return v, json.Unmarshal(b, v)
}

func decodeJPEG(b []byte) (*jpegc.Image, error) { return jpegc.Decode(bytes.NewReader(b)) }

func decodePixels(b []byte) (*imgplane.Image, error) {
	return imgplane.DecodeBinary(bytes.NewReader(b))
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

// Upload stores a perturbed image (encoded JPEG bytes) and its opaque
// public-parameter document, the pair puppies.Protected carries and
// BatchUpload takes, and returns the image ID. The request carries a fresh
// idempotency key, so transient failures are retried without risking
// duplicate stored images.
func (c *Client) Upload(ctx context.Context, image []byte, params json.RawMessage) (string, error) {
	body, err := json.Marshal(UploadRequest{Image: image, Params: params})
	if err != nil {
		return "", err
	}
	header := http.Header{
		"Content-Type":    {"application/json"},
		idempotencyHeader: {newIdempotencyKey()},
	}
	resp, err := call(ctx, c, http.MethodPost, "/v1/images", body, header, decodeJSON[UploadResponse])
	if err != nil {
		return "", err
	}
	if resp.ID == "" {
		return "", &corruptError{errors.New("server returned empty id")}
	}
	return resp.ID, nil
}

// ListImages returns every stored image ID (sorted), the recovery-audit
// view of the PSP: after a server restart, each listed ID is fetchable.
func (c *Client) ListImages(ctx context.Context) ([]string, error) {
	resp, err := call(ctx, c, http.MethodGet, "/v1/images", nil, nil, decodeJSON[ListResponse])
	if err != nil {
		return nil, err
	}
	return resp.IDs, nil
}

// FetchImage downloads the stored (untransformed) perturbed image.
func (c *Client) FetchImage(ctx context.Context, id string) (*jpegc.Image, error) {
	return call(ctx, c, http.MethodGet, "/v1/images/"+url.PathEscape(id), nil, nil, decodeJPEG)
}

// FetchParams downloads and validates the image's public data.
func (c *Client) FetchParams(ctx context.Context, id string) (*core.PublicData, error) {
	return call(ctx, c, http.MethodGet, "/v1/images/"+url.PathEscape(id)+"/params", nil, nil, core.DecodePublicData)
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
	return call(ctx, c, http.MethodGet, "/v1/images/"+url.PathEscape(id)+"/transformed?"+q, nil, nil, decodeJPEG)
}

// FetchTransformedPixels asks the PSP to apply the spec and return lossless
// transformed pixels (the high-fidelity delivery path).
func (c *Client) FetchTransformedPixels(ctx context.Context, id string, spec transform.Spec) (*imgplane.Image, error) {
	q, err := specQuery(spec)
	if err != nil {
		return nil, err
	}
	return call(ctx, c, http.MethodGet, "/v1/images/"+url.PathEscape(id)+"/pixels?"+q, nil, nil, decodePixels)
}

// Health probes GET /v1/healthz and returns the server's self-report.
func (c *Client) Health(ctx context.Context) (*HealthResponse, error) {
	return call(ctx, c, http.MethodGet, "/v1/healthz", nil, nil, decodeJSON[HealthResponse])
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
	return call(ctx, c, http.MethodGet, "/v1/search?id="+url.QueryEscape(id)+"&k="+strconv.Itoa(k), nil, nil, decodeJSON[SearchResponse])
}

// Search runs k-NN search by image bytes: POST /v1/search with an
// UploadRequest document, so the query's public parameters shape the
// signature exactly as they would at upload. params may be nil.
func (c *Client) Search(ctx context.Context, image []byte, params json.RawMessage, k int) (*SearchResponse, error) {
	body, err := json.Marshal(UploadRequest{Image: image, Params: params})
	if err != nil {
		return nil, err
	}
	return call(ctx, c, http.MethodPost, "/v1/search?k="+strconv.Itoa(k), body,
		http.Header{"Content-Type": {"application/json"}}, decodeJSON[SearchResponse])
}
