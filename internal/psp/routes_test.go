package psp

import (
	"net/http"
	"testing"
)

// TestRouteCosts pins the PSP's route table: transform routes and search
// cost 2, the batch envelope 0 (items pay inside), other client routes 1,
// and healthz/statz bypass the spine.
func TestRouteCosts(t *testing.T) {
	type cost struct {
		name string
		cost int
	}
	want := map[string]cost{
		"GET /v1/healthz":                 {},
		"GET /v1/statz":                   {},
		"GET /v1/images":                  {routeList, 1},
		"POST /v1/images":                 {routeUpload, 1},
		"POST /v1/images:batch":           {routeBatch, 0},
		"PUT /v1/images/{id}":             {routePut, 1},
		"GET /v1/images/{id}":             {routeGet, 1},
		"GET /v1/images/{id}/params":      {routeParams, 1},
		"GET /v1/images/{id}/transformed": {routeTransformed, 2},
		"GET /v1/images/{id}/pixels":      {routePixels, 2},
		"GET /v1/search":                  {routeSearch, 2},
		"POST /v1/search":                 {routeSearch, 2},
	}
	s := NewServer()
	routes := s.routes()
	if len(routes) != len(want) {
		t.Fatalf("%d routes, want %d", len(routes), len(want))
	}
	for _, rt := range routes {
		if w, ok := want[rt.Pattern]; !ok || (cost{rt.Name, rt.Cost}) != w {
			t.Errorf("%s: name %q cost %d, want %+v", rt.Pattern, rt.Name, rt.Cost, w)
		}
	}

	// The unnamed routes bypass admission and record no latency.
	h := s.Handler()
	for _, path := range []string{"/v1/healthz", "/v1/statz"} {
		if rec := doGet(h, path, nil); rec.Code != http.StatusOK {
			t.Fatalf("%s: HTTP %d", path, rec.Code)
		}
	}
	if st := s.Statz(); st.Admission.Admitted != 0 || len(st.LatencyNs) != 0 {
		t.Fatalf("bypass routes touched the spine: admission %+v, latency %v", st.Admission, st.LatencyNs)
	}
}
