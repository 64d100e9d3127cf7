// Package psp simulates the Photo Sharing Platform of the paper's system
// architecture (Fig. 5): an HTTP service that stores perturbed images plus
// their public parameters and performs ordinary image transformations on
// request — with no knowledge of PuPPIeS whatsoever. The PSP only ever
// touches (a) opaque JPEG bytes, (b) opaque parameter JSON, and (c) the
// generic transform library; this separation is the paper's semi-honest
// threat model made concrete.
package psp

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"puppies/internal/blobstore"
	"puppies/internal/jpegc"
	"puppies/internal/searchidx"
	"puppies/internal/spine"
	"puppies/internal/transform"
)

// DefaultMaxUpload bounds request and response bodies unless overridden.
const DefaultMaxUpload = 64 << 20

// idempotencyHeader carries the client-generated key that lets the server
// deduplicate retried uploads.
const idempotencyHeader = "Idempotency-Key"

type entry struct {
	jpeg   []byte
	params json.RawMessage
}

// Server is the PSP HTTP service over a pluggable Store.
type Server struct {
	// MaxUpload caps upload body size in bytes; larger requests get
	// HTTP 413. Zero means DefaultMaxUpload. Set before Handler is used.
	MaxUpload int64

	// VariantCacheBytes budgets the encoded-output cache (re-encoded
	// transform JPEGs and pixel payloads) and CoeffCacheBytes the
	// decoded-coefficient cache. Zero means the package defaults;
	// negative disables that cache. Set before the first request.
	VariantCacheBytes int64
	CoeffCacheBytes   int64

	// Limits shapes admission control (see spine.Limits): transform routes
	// cost two units (see routes). Zero MaxInflight means
	// DefaultInflightPerProc per GOMAXPROCS. Set before Handler is used.
	spine.Limits

	// SearchIndex, when set before the first request, backs /v1/search —
	// e.g. a durable searchidx.OpenDir index that pspd snapshots across
	// restarts. Nil means a fresh in-memory index.
	SearchIndex *searchidx.Index

	// DisableScaledDecode forces every /transformed compute down the
	// full-resolution path, bypassing the scaled-decode planner
	// (transform.ApplyPlanned). Serving stays correct either way. No daemon
	// flag sets it: it pins the full-path baseline that the thumbnail
	// benchmarks and TestThumbnailSpeedup compare the planner against. Set
	// before Handler is used.
	DisableScaledDecode bool

	searchOnce    sync.Once
	searchQueries atomic.Uint64
	searchHits    atomic.Uint64

	storeOnce sync.Once
	store     Store

	cacheOnce sync.Once
	scache    *serveCache

	spineOnce sync.Once
	sp        *spine.Spine
}

// DefaultInflightPerProc scales the default admission capacity: weighted
// units of concurrently served requests per GOMAXPROCS. Generous on purpose
// — admission control exists to stop queue collapse under extreme overload,
// not to throttle ordinary bursts.
const DefaultInflightPerProc = 16

// spine returns the serving spine, built on first use from Limits.
func (s *Server) spine() *spine.Spine {
	s.spineOnce.Do(func() { s.sp = spine.New(s.Limits, DefaultInflightPerProc) })
	return s.sp
}

// SetDraining flips the server into (or out of) draining mode (see
// spine.Spine.SetDraining): GET /v1/healthz answers 503 with a Retry-After
// hint while every other route keeps serving, and admission sheds requests
// that would have to queue.
func (s *Server) SetDraining(v bool) { s.spine().SetDraining(v) }

// NewServer returns a PSP over an ephemeral in-memory store.
func NewServer() *Server {
	return NewServerWith(NewMemStore())
}

// NewServerWith returns a PSP over the given store — e.g. a
// blobstore.Store for crash-safe durability.
func NewServerWith(st Store) *Server {
	s := &Server{}
	s.storeOnce.Do(func() {}) // mark initialized
	s.store = st
	return s
}

// st returns the store, lazily defaulting a zero-value Server to memory.
func (s *Server) st() Store {
	s.storeOnce.Do(func() { s.store = NewMemStore() })
	return s.store
}

// cache returns the serving-path cache layer, built on first use from the
// configured budgets.
func (s *Server) cache() *serveCache {
	s.cacheOnce.Do(func() {
		s.scache = newServeCache(
			budgetOrDefault(s.VariantCacheBytes, DefaultVariantCacheBytes),
			budgetOrDefault(s.CoeffCacheBytes, DefaultCoeffCacheBytes),
		)
	})
	return s.scache
}

// CacheStats snapshots the serving-cache counters (the /v1/statz body).
func (s *Server) CacheStats() CacheStatsResponse {
	return s.cache().statsResponse()
}

// Len reports how many images are stored.
func (s *Server) Len() int { return s.st().Len() }

func (s *Server) maxUpload() int64 {
	if s.MaxUpload > 0 {
		return s.MaxUpload
	}
	return DefaultMaxUpload
}

// UploadRequest is the POST /v1/images body.
type UploadRequest struct {
	// Image is the perturbed JPEG bytes (base64 in JSON).
	Image []byte `json:"image"`
	// Params is the opaque public-parameter document.
	Params json.RawMessage `json:"params"`
}

// UploadResponse carries the assigned image ID, plus the near-duplicate
// hint when the signature index already held a close match: DuplicateOf
// names the earlier image and Distance its signature distance. The upload
// is stored either way — deduplication is the caller's decision.
type UploadResponse struct {
	ID          string `json:"id"`
	DuplicateOf string `json:"duplicateOf,omitempty"`
	Distance    uint32 `json:"distance,omitempty"`
}

// ListResponse is the GET /v1/images body.
type ListResponse struct {
	IDs []string `json:"ids"`
}

// HealthResponse is the GET /v1/healthz body.
type HealthResponse struct {
	Status string `json:"status"`
	Images int    `json:"images"`
}

// Handler returns the HTTP API:
//
//	GET  /v1/healthz                     liveness + store size
//	GET  /v1/statz                       serving-cache statistics
//	GET  /v1/images                      list stored image IDs
//	POST /v1/images                      upload {image, params} -> {id}
//	POST /v1/images:batch                multipart streaming batch upload;
//	                                     each part is one upload body, parts
//	                                     validate in parallel (see batch.go)
//	PUT  /v1/images/{id}                 store under a caller-chosen ID
//	                                     (idempotent; 409 on byte conflict)
//	GET  /v1/images/{id}                 stored JPEG bytes
//	GET  /v1/images/{id}/params          public parameters
//	GET  /v1/images/{id}/transformed?spec=J  transformed, re-encoded JPEG
//	GET  /v1/images/{id}/pixels?spec=J   transformed pixels, lossless PLNR
//	GET  /v1/search?id=X&k=K             k-NN over the signature index
//	POST /v1/search?k=K                  same, querying by image bytes
//	                                     (raw image/jpeg body or an
//	                                     UploadRequest JSON document)
//
// where J is a URL-encoded transform.Spec JSON document. Uploads may carry
// an Idempotency-Key header; repeats with the same key and bytes return
// the originally assigned ID without storing a second copy, and a repeat
// with different bytes answers 409.
//
// Image representations are immutable, so every image GET carries a strong
// ETag and Cache-Control: immutable, and honors If-None-Match with 304.
// Transformed and pixel outputs are served through the cache layer (see
// cache.go): an encoded-variant LRU over a decoded-coefficient LRU, with
// concurrent identical requests collapsed into one computation.
func (s *Server) Handler() http.Handler {
	return s.spine().Handler(s.routes())
}

// Route names: the latency histogram keys on /v1/statz.
const (
	routeUpload      = "upload"
	routeBatch       = "batch"
	routePut         = "put"
	routeList        = "list"
	routeGet         = "get"
	routeParams      = "params"
	routeTransformed = "transformed"
	routePixels      = "pixels"
	routeSearch      = "search"
)

// routes is the PSP's route table. Transform routes do decode + DCT-domain
// work and cost twice a store read/write; search by image bytes decodes a
// JPEG like them (the by-ID form is cheaper but shares the route). The
// batch envelope is free and each item pays its own unit. healthz and
// statz are unnamed, so they bypass admission: they are how operators and
// gateways observe an overloaded server.
func (s *Server) routes() []spine.Route {
	return []spine.Route{
		{Pattern: "GET /v1/healthz", Handler: s.handleHealthz},
		{Pattern: "GET /v1/statz", Handler: s.handleStatz},
		{Pattern: "GET /v1/images", Name: routeList, Cost: 1, Handler: s.handleList},
		{Pattern: "POST /v1/images", Name: routeUpload, Cost: 1, Handler: s.handleUpload},
		{Pattern: "POST /v1/images:batch", Name: routeBatch, Handler: s.handleBatch},
		{Pattern: "PUT /v1/images/{id}", Name: routePut, Cost: 1, Handler: s.handlePutImage},
		{Pattern: "GET /v1/images/{id}", Name: routeGet, Cost: 1, Handler: s.handleGet},
		{Pattern: "GET /v1/images/{id}/params", Name: routeParams, Cost: 1, Handler: s.handleParams},
		{Pattern: "GET /v1/images/{id}/transformed", Name: routeTransformed, Cost: 2, Handler: s.handleTransformed},
		{Pattern: "GET /v1/images/{id}/pixels", Name: routePixels, Cost: 2, Handler: s.handlePixels},
		{Pattern: "GET /v1/search", Name: routeSearch, Cost: 2, Handler: s.handleSearch},
		{Pattern: "POST /v1/search", Name: routeSearch, Cost: 2, Handler: s.handleSearch},
	}
}

func httpError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := HealthResponse{Status: "ok", Images: s.Len()}
	if s.spine().Draining() {
		h.Status = "draining"
		spine.WriteDraining(w, h)
		return
	}
	spine.WriteJSON(w, http.StatusOK, h)
}

// StatzResponse is the GET /v1/statz body: cache statistics, the search
// section, and the spine's admission counters and per-route latency
// quantiles.
type StatzResponse struct {
	CacheStatsResponse
	spine.Stats
	Search SearchStats `json:"search"`
}

// Statz snapshots the full server statistics (the /v1/statz body).
func (s *Server) Statz() StatzResponse {
	return StatzResponse{
		CacheStatsResponse: s.CacheStats(),
		Stats:              s.spine().Stats(),
		Search:             s.searchStats(),
	}
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	spine.WriteJSON(w, http.StatusOK, s.Statz())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	ids := s.st().IDs()
	sort.Strings(ids)
	if ids == nil {
		ids = []string{}
	}
	spine.WriteJSON(w, http.StatusOK, ListResponse{IDs: ids})
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	body, ok := spine.ReadBody(w, r, s.maxUpload())
	if !ok {
		return
	}
	writeUploadResult(w, s.storeOne(body, strings.TrimSpace(r.Header.Get(idempotencyHeader))))
}

// writeUploadResult answers an upload with its ID or its error.
func writeUploadResult(w http.ResponseWriter, res BatchResult) {
	if res.Error != "" {
		httpError(w, res.Status, "%s", res.Error)
		return
	}
	spine.WriteJSON(w, http.StatusOK, UploadResponse{ID: res.ID, DuplicateOf: res.DuplicateOf, Distance: res.Distance})
}

// paramsEqual compares two public-parameter documents, treating absent,
// empty, and JSON null as the same thing (the /params route serves "null"
// for an absent document, so replication round-trips through it).
func paramsEqual(a, b json.RawMessage) bool {
	norm := func(p json.RawMessage) []byte {
		t := bytes.TrimSpace(p)
		if len(t) == 0 || bytes.Equal(t, []byte("null")) {
			return nil
		}
		return t
	}
	return bytes.Equal(norm(a), norm(b))
}

// handlePutImage stores an upload under a caller-chosen ID — the
// replication primitive the cluster gateway builds on. Semantics are
// compare-on-conflict idempotent: a PUT of bytes identical to the stored
// record answers 200 with the ID (so retries, re-replication, and read
// repair all converge), while a PUT of different bytes under an existing ID
// answers 409 and never overwrites. An Idempotency-Key is honored exactly
// like POST's, and the answer carries POST's near-duplicate hint.
func (s *Server) handlePutImage(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := blobstore.ValidID(id); err != nil {
		httpError(w, http.StatusBadRequest, "bad image id: %v", err)
		return
	}
	body, ok := spine.ReadBody(w, r, s.maxUpload())
	if !ok {
		return
	}
	var req UploadRequest
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	writeUploadResult(w, s.storeUpload(id, req.Image, req.Params, strings.TrimSpace(r.Header.Get(idempotencyHeader)), true))
}

// storeUpload is the one upload pipeline: POST and batch uploads pass a
// freshly minted id, PUT its caller-chosen one. A repeated Idempotency-Key
// or an id already stored answers under storedAs's rule; otherwise the
// upload must be a decodable JPEG, is stored, and is indexed for search,
// with the nearest earlier image as the near-duplicate hint. When owned is
// false the slices are borrowed and copied before the store takes them, so
// callers may recycle their buffers immediately.
func (s *Server) storeUpload(id string, image, params []byte, key string, owned bool) BatchResult {
	if len(image) == 0 {
		return BatchResult{Error: "empty image", Status: http.StatusBadRequest}
	}
	if res, seen := s.keyHit(key, image, params); seen {
		return res
	}
	if res, stored := s.storedAs(id, image, params); stored {
		return res
	}
	// Replicas index too: the gateway's scatter-gather search only
	// degrades gracefully if every shard holding a copy can answer for it.
	sig, err := signature(image, params)
	if err != nil {
		return BatchResult{Error: fmt.Sprintf("not a decodable baseline JPEG: %v", err), Status: http.StatusUnprocessableEntity}
	}
	if len(params) == 0 {
		params = nil
	}
	if !owned {
		image, params = bytes.Clone(image), bytes.Clone(params)
	}
	// Put re-checks the key atomically, so concurrent parts (or retries)
	// carrying the same key converge on one canonical ID.
	canonical, err := s.st().Put(id, image, params, key)
	if err != nil {
		// A concurrent PUT may have stored the ID between the check and
		// the write (every Store refuses duplicate IDs). Re-read and apply
		// the same compare-on-conflict rule instead of failing the retry.
		res, stored := s.storedAs(id, image, params)
		if !stored {
			res = BatchResult{Error: fmt.Sprintf("store: %v", err), Status: http.StatusInternalServerError}
		}
		return res
	}
	res := BatchResult{ID: canonical}
	if near, ok := s.indexImage(canonical, sig); ok {
		res.DuplicateOf = near.ID
		res.Distance = near.Distance
	}
	return res
}

// storedAs applies the compare-on-conflict rule to an upload that resolves
// to id (a PUT's caller-chosen ID, or the ID an Idempotency-Key already
// names): bytes identical to the stored record are an idempotent success
// answered with id, different bytes a 409 conflict, so a reused ID or key
// never acknowledges bytes it did not store. stored is false when nothing
// is stored under id.
func (s *Server) storedAs(id string, image, params []byte) (res BatchResult, stored bool) {
	jpeg, storedParams, ok, err := s.st().Get(id)
	switch {
	case err != nil:
		return BatchResult{Error: fmt.Sprintf("store: %v", err), Status: http.StatusInternalServerError}, true
	case !ok:
		return BatchResult{}, false
	case bytes.Equal(jpeg, image) && paramsEqual(storedParams, params):
		return BatchResult{ID: id}, true
	}
	return BatchResult{Error: fmt.Sprintf("image %q already stored with different content", id), Status: http.StatusConflict}, true
}

// keyHit answers an upload whose Idempotency-Key already names a stored
// record, under storedAs's rule; seen is false for an empty or new key.
func (s *Server) keyHit(key string, image, params []byte) (res BatchResult, seen bool) {
	if key == "" {
		return BatchResult{}, false
	}
	id, ok := s.st().IDForKey(key)
	if !ok {
		return BatchResult{}, false
	}
	return s.storedAs(id, image, params)
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *entry {
	id := r.PathValue("id")
	jpeg, params, ok, err := s.st().Get(id)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "store: %v", err)
		return nil
	}
	if !ok {
		httpError(w, http.StatusNotFound, "image %q not found", id)
		return nil
	}
	return &entry{jpeg: jpeg, params: params}
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	etag := strongETag("R", id, "")
	sc := s.cache()
	// The raw bytes live in the store already; the conditional check still
	// needs the lookup so an unknown ID stays a 404, not a bogus 304.
	e := s.lookup(w, r)
	if e == nil {
		return
	}
	sc.serveBytes(w, r, etag, "image/jpeg", e.jpeg)
}

func (s *Server) handleParams(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	etag := strongETag("M", id, "")
	sc := s.cache()
	e := s.lookup(w, r)
	if e == nil {
		return
	}
	body := []byte(e.params)
	if len(body) == 0 {
		body = []byte("null")
	}
	sc.serveBytes(w, r, etag, "application/json", body)
}

func parseSpec(r *http.Request) (transform.Spec, error) {
	raw := r.URL.Query().Get("spec")
	if strings.TrimSpace(raw) == "" {
		return transform.Spec{Op: transform.OpNone}, nil
	}
	var spec transform.Spec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		return transform.Spec{}, err
	}
	return spec, nil
}

// handlerError carries an HTTP status (and optional error class) out of a
// singleflight computation so every collapsed waiter reports it the same
// way.
type handlerError struct {
	code  int
	class string
	msg   string
}

func (e *handlerError) Error() string { return e.msg }

// writeComputeError maps a computation failure onto the HTTP response; a
// classed error additionally sets the X-PSP-Error-Class header so clients
// type it (e.g. a corrupt stored image becomes ErrCorrupt, not a retried
// 500).
func writeComputeError(w http.ResponseWriter, err error) {
	var he *handlerError
	if errors.As(err, &he) {
		if he.class != "" {
			w.Header().Set(errorClassHeader, he.class)
		}
		httpError(w, he.code, "%s", he.msg)
		return
	}
	httpError(w, http.StatusInternalServerError, "%v", err)
}

// corruptStoredError marks a stored image that no longer decodes: upload
// validated it, so this is storage-layer damage. Served as a 500 with the
// corrupt class — terminal for retry logic, not a transient failure.
func corruptStoredError(err error) *handlerError {
	return &handlerError{
		code:  http.StatusInternalServerError,
		class: errorClassCorrupt,
		msg:   fmt.Sprintf("stored image corrupt: %v", err),
	}
}

// serveVariant is the shared serving path of /transformed and /pixels:
// variant-cache fast path, conditional GET, then singleflight-collapsed
// compute with the result admitted to the cache.
func (s *Server) serveVariant(w http.ResponseWriter, r *http.Request, route, contentType string, compute func(e *entry, spec transform.Spec) ([]byte, error)) {
	id := r.PathValue("id")
	spec, err := parseSpec(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	if route == "P" && spec.Op == transform.OpCompress {
		httpError(w, http.StatusBadRequest, "compression has no pixel form; use /transformed")
		return
	}
	key := variantKey(route, id, spec.Key())
	etag := strongETag(route, id, spec.Key())
	sc := s.cache()

	// Hot path: encoded bytes already cached — no store read, no decode.
	if body, ok := sc.variants.Get(key); ok {
		sc.serveBytes(w, r, etag, contentType, body)
		return
	}
	e := s.lookup(w, r)
	if e == nil {
		return
	}
	// The image exists and is immutable, so a matching validator is
	// authoritative even though the variant bytes were never computed (or
	// were evicted): the client already holds them.
	if etagMatches(r, etag) {
		sc.writeNotModified(w, etag)
		return
	}
	body, err, _ := sc.tflight.Do(key, func() ([]byte, error) {
		if body, ok := sc.variants.Get(key); ok {
			return body, nil
		}
		body, err := compute(e, spec)
		if err != nil {
			return nil, err
		}
		sc.transformsComputed.Add(1)
		sc.variants.Add(key, body, int64(len(body)))
		return body, nil
	})
	if err != nil {
		writeComputeError(w, err)
		return
	}
	sc.serveBytes(w, r, etag, contentType, body)
}

func (s *Server) handleTransformed(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.serveVariant(w, r, "T", "image/jpeg", func(e *entry, spec transform.Spec) ([]byte, error) {
		img, err := s.cache().decodeStored(id, e.jpeg)
		if err != nil {
			return nil, corruptStoredError(err)
		}
		out, err := s.applyTransform(e, img, spec)
		if err != nil {
			return nil, &handlerError{code: http.StatusBadRequest, msg: fmt.Sprintf("transform: %v", err)}
		}
		buf := spine.GetBuf()
		defer spine.PutBuf(buf)
		if err := out.Encode(buf, jpegc.EncodeOptions{Tables: jpegc.TablesOptimized}); err != nil {
			return nil, &handlerError{code: http.StatusInternalServerError, msg: fmt.Sprintf("encode: %v", err)}
		}
		return cloneBytes(buf), nil
	})
}

// applyTransform executes a /transformed compute, routing eligible
// downscales of unprotected images through the scaled-decode planner.
// Protected images (those stored with public parameters) always take the
// full path: authorized receivers run shadow-ROI recovery against the
// transformed bytes we serve, and that arithmetic needs the exact
// full-resolution transform definition, not a planner-equivalent image.
// The path choice depends only on immutable per-image state and the spec,
// so a given variant cache key always computes the same bytes.
func (s *Server) applyTransform(e *entry, img *jpegc.Image, spec transform.Spec) (*jpegc.Image, error) {
	if s.DisableScaledDecode || !paramsEqual(e.params, nil) {
		return transform.Apply(img, spec)
	}
	return transform.ApplyPlanned(img, spec)
}

func (s *Server) handlePixels(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.serveVariant(w, r, "P", "application/octet-stream", func(e *entry, spec transform.Spec) ([]byte, error) {
		img, err := s.cache().decodeStored(id, e.jpeg)
		if err != nil {
			return nil, corruptStoredError(err)
		}
		// Recovery-grade route: receivers subtract shadow planes computed
		// with the full-resolution ApplyPlanar, so this path never takes
		// the scaled-decode planner.
		pix, err := img.ToPlanar()
		if err != nil {
			return nil, &handlerError{code: http.StatusInternalServerError, msg: fmt.Sprintf("decode: %v", err)}
		}
		out, err := transform.ApplyPlanar(pix, spec)
		if err != nil {
			return nil, &handlerError{code: http.StatusBadRequest, msg: fmt.Sprintf("transform: %v", err)}
		}
		buf := spine.GetBuf()
		defer spine.PutBuf(buf)
		if err := out.EncodeBinary(buf); err != nil {
			return nil, &handlerError{code: http.StatusInternalServerError, msg: fmt.Sprintf("encode: %v", err)}
		}
		return cloneBytes(buf), nil
	})
}
