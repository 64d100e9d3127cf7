package psp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"

	"puppies/internal/dct"
	"puppies/internal/jpegc"
	"puppies/internal/servecache"
)

// Default serving-cache budgets. Stored images are immutable, so both
// caches never invalidate — entries only age out under byte pressure.
const (
	// DefaultVariantCacheBytes bounds the encoded-output cache: re-encoded
	// transform JPEGs and planar pixel payloads, keyed by
	// (route, imageID, canonical spec key).
	DefaultVariantCacheBytes = 256 << 20
	// DefaultCoeffCacheBytes bounds the decoded-coefficient cache: parsed
	// jpegc.Images keyed by imageID, so repeated transforms of a hot image
	// skip entropy decode entirely.
	DefaultCoeffCacheBytes = 256 << 20
)

// serveCache is the per-server serving-path cache hierarchy: an encoded
// variant LRU in front of a decoded-coefficient LRU, with singleflight
// groups collapsing concurrent identical work at both levels. Either cache
// pointer may be nil (disabled); the flight groups always run.
type serveCache struct {
	variants *servecache.Cache[[]byte]
	coeffs   *servecache.Cache[*jpegc.Image]

	tflight servecache.Group[[]byte]       // per variant key: transform+encode
	dflight servecache.Group[*jpegc.Image] // per image ID: entropy decode

	transformsComputed atomic.Uint64
	decodesComputed    atomic.Uint64
	notModified        atomic.Uint64
}

// CacheStatsResponse is the GET /v1/statz body.
type CacheStatsResponse struct {
	// Variants is the encoded-output cache (transformed JPEGs and pixel
	// payloads); Coeffs is the decoded-coefficient cache.
	Variants servecache.Stats `json:"variants"`
	Coeffs   servecache.Stats `json:"coeffs"`
	// CollapsedTransforms and CollapsedDecodes count requests that shared
	// another in-flight computation instead of running their own.
	CollapsedTransforms uint64 `json:"collapsedTransforms"`
	CollapsedDecodes    uint64 `json:"collapsedDecodes"`
	// TransformsComputed and DecodesComputed count the computations that
	// actually ran (cache misses that led the flight).
	TransformsComputed uint64 `json:"transformsComputed"`
	DecodesComputed    uint64 `json:"decodesComputed"`
	// NotModified counts conditional GETs answered with HTTP 304.
	NotModified uint64 `json:"notModified"`
}

func (sc *serveCache) statsResponse() CacheStatsResponse {
	return CacheStatsResponse{
		Variants:            sc.variants.Stats(),
		Coeffs:              sc.coeffs.Stats(),
		CollapsedTransforms: sc.tflight.Collapsed(),
		CollapsedDecodes:    sc.dflight.Collapsed(),
		TransformsComputed:  sc.transformsComputed.Load(),
		DecodesComputed:     sc.decodesComputed.Load(),
		NotModified:         sc.notModified.Load(),
	}
}

// budgetOrDefault maps a Server cache-budget field to an effective budget:
// zero means the default, negative disables.
func budgetOrDefault(v, def int64) int64 {
	switch {
	case v == 0:
		return def
	case v < 0:
		return 0
	}
	return v
}

func newServeCache(variantBytes, coeffBytes int64) *serveCache {
	sc := &serveCache{}
	if variantBytes > 0 {
		sc.variants = servecache.New[[]byte](variantBytes)
	}
	if coeffBytes > 0 {
		sc.coeffs = servecache.New[*jpegc.Image](coeffBytes)
	}
	return sc
}

// decodeStored returns the decoded coefficient image for a stored JPEG,
// serving repeats from the coefficient cache and collapsing concurrent
// decodes of the same image. Callers must treat the returned image as
// read-only — it is shared across requests (transform.Apply never mutates
// its input).
func (sc *serveCache) decodeStored(id string, jpeg []byte) (*jpegc.Image, error) {
	if img, ok := sc.coeffs.Get(id); ok {
		return img, nil
	}
	img, err, _ := sc.dflight.Do(id, func() (*jpegc.Image, error) {
		// Re-check under the flight: a just-finished leader may have
		// populated the cache between our miss and acquiring the flight.
		if img, ok := sc.coeffs.Get(id); ok {
			return img, nil
		}
		img, err := jpegc.Decode(bytes.NewReader(jpeg))
		if err != nil {
			return nil, err
		}
		sc.decodesComputed.Add(1)
		sc.coeffs.Add(id, img, coeffCost(img))
		return img, nil
	})
	return img, err
}

// coeffCost estimates the resident size of a decoded coefficient image:
// the block arrays dominate (256 bytes per 8x8 int32 block), plus a small
// per-component constant for quant tables and headers.
func coeffCost(img *jpegc.Image) int64 {
	var n int64 = 128
	for i := range img.Comps {
		n += int64(len(img.Comps[i].Blocks))*dct.BlockLen*4 + 512
	}
	return n
}

// variantKey names one cached encoded output. route distinguishes the
// /transformed ("T") and /pixels ("P") representations of the same
// (image, spec) pair; the raw stored bytes use "R" with an empty spec key.
func variantKey(route, id, specKey string) string {
	return route + "\x00" + id + "\x00" + specKey
}

// strongETag derives the validator for a variant. Uploaded images are
// immutable and the decode→transform→encode pipeline is deterministic, so
// (route, id, spec) fully determines the response bytes — the hash of that
// triple is a *strong* ETag without having to compute the body first.
// That is what lets conditional GETs answer 304 even on a cold cache.
func strongETag(route, id, specKey string) string {
	h := sha256.Sum256([]byte(variantKey(route, id, specKey)))
	return `"` + hex.EncodeToString(h[:16]) + `"`
}

// etagMatches implements the If-None-Match weak comparison of RFC 9110
// §13.1.2: a W/ prefix is ignored on either side and "*" matches any
// current representation.
func etagMatches(r *http.Request, etag string) bool {
	header := r.Header.Get("If-None-Match")
	if header == "" {
		return false
	}
	want := strings.TrimPrefix(etag, "W/")
	for _, candidate := range strings.Split(header, ",") {
		candidate = strings.TrimSpace(candidate)
		if candidate == "*" {
			return true
		}
		if strings.TrimPrefix(candidate, "W/") == want {
			return true
		}
	}
	return false
}

// immutableCacheControl is sent with every image representation: stored
// images never change, so clients and intermediaries may cache forever.
const immutableCacheControl = "public, max-age=31536000, immutable"

// writeNotModified answers a conditional GET whose validator still holds.
func (sc *serveCache) writeNotModified(w http.ResponseWriter, etag string) {
	sc.notModified.Add(1)
	h := w.Header()
	h.Set("ETag", etag)
	h.Set("Cache-Control", immutableCacheControl)
	w.WriteHeader(http.StatusNotModified)
}

// serveBytes writes a fully materialized response body with its validator,
// answering 304 if the client already holds these bytes. Content-Length is
// set explicitly so large bodies are not chunk-encoded.
func (sc *serveCache) serveBytes(w http.ResponseWriter, r *http.Request, etag, contentType string, body []byte) {
	if etagMatches(r, etag) {
		sc.writeNotModified(w, etag)
		return
	}
	h := w.Header()
	h.Set("ETag", etag)
	h.Set("Cache-Control", immutableCacheControl)
	h.Set("Content-Type", contentType)
	h.Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body)
}

// cloneBytes detaches a pooled buffer's contents for caching/serving.
func cloneBytes(b *bytes.Buffer) []byte {
	out := make([]byte, b.Len())
	copy(out, b.Bytes())
	return out
}
