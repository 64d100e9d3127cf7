package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"net/textproto"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"puppies/internal/psp"
	"puppies/internal/spine"
)

// batchPart is one hand-rolled multipart part; empty fields are omitted.
type batchPart struct {
	name, contentType, key string
	body                   []byte
}

// postParts POSTs parts as a batch to base and returns the status and, on
// 200, the decoded results.
func postParts(t *testing.T, base string, parts []batchPart) (int, []psp.BatchResult) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for _, p := range parts {
		hdr := textproto.MIMEHeader{}
		if p.name != "" {
			hdr.Set("Content-Disposition", `form-data; name="`+p.name+`"`)
		}
		if p.contentType != "" {
			hdr.Set("Content-Type", p.contentType)
		}
		if p.key != "" {
			hdr.Set("Idempotency-Key", p.key)
		}
		pw, err := mw.CreatePart(hdr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pw.Write(p.body); err != nil {
			t.Fatal(err)
		}
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/images:batch", mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br psp.BatchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			t.Fatalf("decode batch response: %v", err)
		}
	}
	return resp.StatusCode, br.Results
}

// TestBatchFramingParity posts the same batches to a PSP and to a gateway
// over PSPs and expects identical statuses and per-item outcomes: the two
// daemons share one batch reader, so their framing cannot drift.
func TestBatchFramingParity(t *testing.T) {
	const limit = 4 << 10
	single := httptest.NewServer((&psp.Server{MaxUpload: limit}).Handler())
	t.Cleanup(single.Close)
	tc := newTestCluster(t, 3, func(c *Config) { c.MaxBody = limit })

	jpeg := testJPEG(t)
	if len(jpeg) > limit {
		t.Fatalf("fixture JPEG is %d bytes, over the test limit", len(jpeg))
	}
	jsonItem := uploadBody(t, jpeg)
	rawImage := batchPart{name: "image", contentType: "image/jpeg", body: jpeg}
	params := batchPart{name: psp.BatchParamsPart, contentType: "application/json", body: []byte(`{"v":1}`)}
	var tooMany []batchPart
	for i := 0; i <= spine.BatchMaxParts; i++ {
		tooMany = append(tooMany, batchPart{contentType: "application/json", body: []byte(`{}`)})
	}

	cases := []struct {
		name  string
		parts []batchPart
	}{
		// A raw image part is an image whatever its form name: only a
		// non-image part can attach params.
		{"raw image named params", []batchPart{{name: psp.BatchParamsPart, contentType: "image/jpeg", body: jpeg}}},
		{"raw image named params after image", []batchPart{rawImage, {name: psp.BatchParamsPart, contentType: "image/jpeg", body: jpeg}}},
		{"per-item outcomes", []batchPart{
			rawImage, params,
			{contentType: "application/json", body: jsonItem},
			{contentType: "application/json", body: uploadBody(t, []byte("not a jpeg"))},
			{contentType: "application/json", body: []byte("{")},
			{contentType: "image/jpeg", body: bytes.Repeat([]byte{0xFF}, 2*limit)},
			rawImage, {name: psp.BatchParamsPart, contentType: "application/json", body: bytes.Repeat([]byte{' '}, 2*limit)},
		}},
		{"empty", nil},
		{"params first", []batchPart{params}},
		{"params after JSON item", []batchPart{{contentType: "application/json", body: jsonItem}, params}},
		{"params after params", []batchPart{rawImage, params, params}},
		{"too many parts", tooMany},
		{"body over cap", func() []batchPart {
			var ps []batchPart
			for i := 0; i < 20; i++ {
				ps = append(ps, batchPart{contentType: "image/jpeg", body: bytes.Repeat([]byte{0xFF}, limit)})
			}
			return ps
		}()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wantStatus, want := postParts(t, single.URL, c.parts)
			gotStatus, got := postParts(t, tc.srv.URL, c.parts)
			if gotStatus != wantStatus {
				t.Fatalf("gateway HTTP %d, psp HTTP %d", gotStatus, wantStatus)
			}
			if len(got) != len(want) {
				t.Fatalf("gateway %d results, psp %d", len(got), len(want))
			}
			for i := range want {
				g, w := got[i], want[i]
				if (g.ID != "") != (w.ID != "") || g.Status != w.Status || g.Error != w.Error {
					t.Errorf("item %d: gateway %+v, psp %+v", i, g, w)
				}
			}
		})
	}
}

// gatedCluster is a capacity-1 gateway over one shard whose image reads
// block until the gate opens, with one image stored.
type gatedCluster struct {
	gw   *Gateway
	url  string
	id   string
	gate chan struct{}
}

func newGatedCluster(t *testing.T) *gatedCluster {
	t.Helper()
	shardHandler := psp.NewServer().Handler()
	gc := &gatedCluster{gate: make(chan struct{})}
	var armed atomic.Bool
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if armed.Load() && r.Method == http.MethodGet {
			<-gc.gate
		}
		shardHandler.ServeHTTP(w, r)
	}))
	t.Cleanup(shard.Close)
	gw, err := New(Config{
		Shards:       []string{shard.URL},
		Replicas:     1,
		ShardTimeout: 10 * time.Second,
		Limits:       spine.Limits{MaxInflight: 1, AdmitWait: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	gc.gw = gw
	srv := httptest.NewServer(gw.Handler())
	t.Cleanup(srv.Close)
	gc.url = srv.URL
	tc := &testCluster{srv: srv}
	gc.id = tc.upload(t, testJPEG(t), "gated")
	armed.Store(true)
	return gc
}

// hold parks one image GET at the gated shard, occupying the gateway's
// whole admission capacity, and returns a wait for its completion that
// opens the gate first.
func (gc *gatedCluster) hold(t *testing.T) (release func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(gc.url + "/v1/images/" + gc.id)
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitFor(t, 5*time.Second, "holder admitted", func() bool {
		return gc.gw.Stats().Admission.Inflight == 1
	})
	return func() {
		close(gc.gate)
		<-done
	}
}

func TestGatewayShedShape(t *testing.T) {
	gc := newGatedCluster(t)
	defer gc.hold(t)()

	status, hdr, _ := getBytes(t, gc.url+"/v1/images/"+gc.id, nil)
	if status != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", status)
	}
	ra, err := strconv.ParseFloat(hdr.Get("Retry-After"), 64)
	if err != nil || ra <= 0 {
		t.Fatalf("Retry-After %q, want positive fractional seconds", hdr.Get("Retry-After"))
	}
	if cls := hdr.Get(psp.ErrorClassHeader); cls != psp.ErrorClassOverloaded {
		t.Fatalf("error class %q, want %q", cls, psp.ErrorClassOverloaded)
	}
	if st := gc.gw.Stats().Admission; st.ShedTimeout != 1 {
		t.Fatalf("admission %+v, want ShedTimeout=1", st)
	}
	// psp.Client types the gateway's shed exactly like a shard's.
	c := &psp.Client{BaseURL: gc.url, MaxRetries: -1}
	if _, err := c.FetchImage(context.Background(), gc.id); !errors.Is(err, psp.ErrOverloaded) {
		t.Fatalf("client err = %v, want ErrOverloaded", err)
	}
}

func TestGatewayBatchShedsPerItem(t *testing.T) {
	gc := newGatedCluster(t)
	defer gc.hold(t)()

	c := &psp.Client{BaseURL: gc.url, MaxRetries: -1}
	jpeg := testJPEG(t)
	results, err := c.UploadBatch(context.Background(), []psp.BatchUpload{{Image: jpeg}, {Image: jpeg}})
	if err != nil {
		t.Fatalf("envelope must not fail on per-item sheds: %v", err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	for i, res := range results {
		if res.Status != http.StatusTooManyRequests || res.ID != "" {
			t.Fatalf("item %d: %+v, want a per-item 429 with no ID", i, res)
		}
	}
}

func TestGatewayHealthzAndStatzAnswerWhileSaturated(t *testing.T) {
	gc := newGatedCluster(t)
	defer gc.hold(t)()

	status, _, body := getBytes(t, gc.url+"/v1/healthz", nil)
	if status != http.StatusOK {
		t.Fatalf("healthz while saturated: HTTP %d %s", status, body)
	}
	status, _, body = getBytes(t, gc.url+"/v1/statz", nil)
	if status != http.StatusOK {
		t.Fatalf("statz while saturated: HTTP %d", status)
	}
	var st Statz
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Admission.Inflight != 1 || st.Admission.Capacity != 1 {
		t.Fatalf("statz admission %+v, want the holder inflight at capacity 1", st.Admission)
	}
	if st.Admission.Sheds() != 0 {
		t.Fatalf("healthz/statz were shed: %+v", st.Admission)
	}
}

// TestGatewayRouteCosts pins the gateway's route table: transform proxies
// and the search fan-out cost 2, the batch envelope 0 (items pay inside),
// other client routes 1, and healthz/statz/admin bypass the spine.
func TestGatewayRouteCosts(t *testing.T) {
	type cost struct {
		name string
		cost int
	}
	want := map[string]cost{
		"GET /v1/healthz":                 {},
		"GET /v1/statz":                   {},
		"GET /v1/admin/shards":            {},
		"POST /v1/admin/shards":           {},
		"POST /v1/admin/repair":           {},
		"GET /v1/images":                  {"list", 1},
		"POST /v1/images":                 {"upload", 1},
		"POST /v1/images:batch":           {"batch", 0},
		"GET /v1/images/{id}":             {"get", 1},
		"GET /v1/images/{id}/params":      {"params", 1},
		"GET /v1/images/{id}/transformed": {"transformed", 2},
		"GET /v1/images/{id}/pixels":      {"pixels", 2},
		"GET /v1/search":                  {"search", 2},
		"POST /v1/search":                 {"search", 2},
	}
	tc := newTestCluster(t, 1, func(c *Config) { c.Replicas, c.WriteQuorum = 1, 1 })
	routes := tc.gw.routes()
	if len(routes) != len(want) {
		t.Fatalf("%d routes, want %d", len(routes), len(want))
	}
	for _, rt := range routes {
		if w, ok := want[rt.Pattern]; !ok || (cost{rt.Name, rt.Cost}) != w {
			t.Errorf("%s: name %q cost %d, want %+v", rt.Pattern, rt.Name, rt.Cost, w)
		}
	}

	// The unnamed routes bypass admission and record no latency.
	for _, path := range []string{"/v1/healthz", "/v1/statz", "/v1/admin/shards"} {
		if status, _, _ := getBytes(t, tc.srv.URL+path, nil); status != http.StatusOK {
			t.Fatalf("%s: HTTP %d", path, status)
		}
	}
	if st := tc.gw.Stats(); st.Admission.Admitted != 0 || len(st.LatencyNs) != 0 {
		t.Fatalf("bypass routes touched the spine: admission %+v, latency %v", st.Admission, st.LatencyNs)
	}
}
