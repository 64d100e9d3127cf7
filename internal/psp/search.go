package psp

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"

	"puppies/internal/jpegc"
	"puppies/internal/searchidx"
	"puppies/internal/spine"
)

// Search route (GET/POST /v1/search, DESIGN.md §16): k-NN over the
// signature index. The PSP computes signatures from the coefficients it
// already decodes for upload validation — it learns nothing beyond the
// coarse luminance layout the signature encodes, and protected regions
// contribute only their DC-invariant features, so the search surface stays
// inside the semi-honest threat model.
//
// Query forms:
//
//	GET  /v1/search?id=X&k=10      by stored image (self included, rank 1)
//	POST /v1/search?k=10           by image bytes: either a raw image/jpeg
//	                               body or an UploadRequest JSON document
//	                               (the params, when present, shape the
//	                               signature exactly as they did at upload)
const (
	// maxSearchK bounds one query's result set.
	maxSearchK = 100

	// dedupDistance is the signature distance under which two images are
	// reported as near-duplicates — the upload hint's threshold and the
	// "hit" counter's definition. It matches the index's escalation
	// boundary: within it, matches are recompression/transform copies, far
	// below the inter-image distance floor.
	dedupDistance = 700
)

// SearchResponse is the /v1/search body. Partial is only ever set by the
// cluster gateway, when some shards could not be reached and the results
// merge is best-effort.
type SearchResponse struct {
	Results []searchidx.Result `json:"results"`
	Partial bool               `json:"partial,omitempty"`
}

// SearchStats is the search section of /v1/statz.
type SearchStats struct {
	// Indexed is the number of signatures in the index.
	Indexed int `json:"indexed"`
	// Queries counts /v1/search lookups served.
	Queries uint64 `json:"queries"`
	// Hits counts queries whose best answer was a near-duplicate (distance
	// within dedupDistance).
	Hits uint64 `json:"hits"`
}

// searchIdx returns the signature index, defaulting to a fresh in-memory
// one when the operator didn't provide a durable index.
func (s *Server) searchIdx() *searchidx.Index {
	s.searchOnce.Do(func() {
		if s.SearchIndex == nil {
			s.SearchIndex = searchidx.New()
		}
	})
	return s.SearchIndex
}

// searchStats snapshots the search counters for /v1/statz.
func (s *Server) searchStats() SearchStats {
	return SearchStats{
		Indexed: s.searchIdx().Len(),
		Queries: s.searchQueries.Load(),
		Hits:    s.searchHits.Load(),
	}
}

// signature decodes a JPEG and derives its search signature, the one
// place the PSP reads image content. The PSP validates every upload this
// way (any PSP would), and the signature's coarse luminance layout is all
// it retains; the coefficients go back to the slab pool at once.
func signature(image, params []byte) (searchidx.Signature, error) {
	img, err := jpegc.Decode(bytes.NewReader(image))
	if err != nil {
		return searchidx.Signature{}, err
	}
	sig := searchidx.Compute(img, params)
	img.Recycle()
	return sig, nil
}

// indexImage registers an accepted upload's signature and reports the
// nearest previously stored image when it sits within dedupDistance — the
// upload path's near-duplicate hint. The lookup runs before the add so the
// fresh image can't answer for itself.
func (s *Server) indexImage(id string, sig searchidx.Signature) (searchidx.Result, bool) {
	ix := s.searchIdx()
	near := ix.Lookup(sig, 1)
	ix.Add(id, sig)
	if len(near) == 1 && near[0].Distance <= dedupDistance && near[0].ID != id {
		return near[0], true
	}
	return searchidx.Result{}, false
}

// signatureFor resolves a stored image ID to its signature: index fast
// path, then lazy backfill from the store for images that predate the index
// (or a lost snapshot). The backfilled signature is added so the next query
// skips the decode.
func (s *Server) signatureFor(w http.ResponseWriter, id string) (searchidx.Signature, bool) {
	ix := s.searchIdx()
	if sig, ok := ix.Get(id); ok {
		return sig, true
	}
	jpeg, params, ok, err := s.st().Get(id)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "store: %v", err)
		return searchidx.Signature{}, false
	}
	if !ok {
		httpError(w, http.StatusNotFound, "image %q not found", id)
		return searchidx.Signature{}, false
	}
	sig, err := signature(jpeg, params)
	if err != nil {
		writeComputeError(w, corruptStoredError(err))
		return searchidx.Signature{}, false
	}
	ix.Add(id, sig)
	return sig, true
}

// signatureFromBody computes the query signature from a POST body: a raw
// image/jpeg body, or an UploadRequest JSON document when the request says
// application/json.
func (s *Server) signatureFromBody(w http.ResponseWriter, r *http.Request) (searchidx.Signature, bool) {
	body, ok := spine.ReadBody(w, r, s.maxUpload())
	if !ok {
		return searchidx.Signature{}, false
	}
	image, params := body, []byte(nil)
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		var req UploadRequest
		if err := json.Unmarshal(body, &req); err != nil {
			httpError(w, http.StatusBadRequest, "decode request: %v", err)
			return searchidx.Signature{}, false
		}
		image, params = req.Image, req.Params
	}
	if len(image) == 0 {
		httpError(w, http.StatusBadRequest, "empty image")
		return searchidx.Signature{}, false
	}
	sig, err := signature(image, params)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "not a decodable baseline JPEG: %v", err)
		return searchidx.Signature{}, false
	}
	return sig, true
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	k := 10
	if raw := r.URL.Query().Get("k"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 || v > maxSearchK {
			httpError(w, http.StatusBadRequest, "k must be in [1,%d], got %q", maxSearchK, raw)
			return
		}
		k = v
	}
	var (
		sig searchidx.Signature
		ok  bool
	)
	switch {
	case r.URL.Query().Get("id") != "":
		sig, ok = s.signatureFor(w, r.URL.Query().Get("id"))
	case r.Method == http.MethodPost:
		sig, ok = s.signatureFromBody(w, r)
	default:
		httpError(w, http.StatusBadRequest, "search requires ?id= or a POST image body")
		return
	}
	if !ok {
		return
	}
	res := s.searchIdx().Lookup(sig, k)
	s.searchQueries.Add(1)
	if len(res) > 0 && res[0].Distance <= dedupDistance {
		s.searchHits.Add(1)
	}
	if res == nil {
		res = []searchidx.Result{}
	}
	spine.WriteJSON(w, http.StatusOK, SearchResponse{Results: res})
}
