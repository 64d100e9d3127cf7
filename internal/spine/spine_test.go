package spine

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func serve(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

func TestHandlerWrapsNamedRoutesOnly(t *testing.T) {
	sp := New(Limits{MaxInflight: 4}, 1)
	ok := func(w http.ResponseWriter, r *http.Request) {}
	h := sp.Handler([]Route{
		{Pattern: "GET /bare", Handler: ok},
		{Pattern: "GET /free", Name: "free", Handler: ok},
		{Pattern: "GET /paid", Name: "paid", Cost: 2, Handler: ok},
		{Pattern: "POST /paid", Name: "paid", Cost: 2, Handler: ok},
	})
	for _, req := range [][2]string{{"GET", "/bare"}, {"GET", "/free"}, {"GET", "/paid"}, {"POST", "/paid"}} {
		if rec := serve(h, req[0], req[1], ""); rec.Code != http.StatusOK {
			t.Fatalf("%s %s: HTTP %d", req[0], req[1], rec.Code)
		}
	}
	st := sp.Stats()
	if st.Admission.Capacity != 4 || st.Admission.Admitted != 2 || st.Admission.Inflight != 0 {
		t.Fatalf("admission %+v: want only the two paid requests admitted, both released", st.Admission)
	}
	if len(st.LatencyNs) != 2 || st.LatencyNs["free"].Count != 1 || st.LatencyNs["paid"].Count != 2 {
		t.Fatalf("latency %v: want free=1 and paid=2 (shared by name), no bare entry", st.LatencyNs)
	}
}

func TestNegativeMaxInflightDisablesAdmission(t *testing.T) {
	sp := New(Limits{MaxInflight: -1}, 16)
	release, _ := sp.admit.Acquire(context.Background(), 1)
	release()
	if st := sp.Stats(); st.Admission.Capacity != 0 || st.Admission.Admitted != 0 {
		t.Fatalf("admission %+v, want disabled", st.Admission)
	}
	sp.SetDraining(true)
	if !sp.Draining() {
		t.Fatal("draining flag not set without a controller")
	}
}

func TestReadBodyLimit(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if body, ok := ReadBody(w, r, 4); ok {
			_, _ = w.Write(body)
		}
	})
	if rec := serve(h, "POST", "/", "1234"); rec.Code != http.StatusOK || rec.Body.String() != "1234" {
		t.Fatalf("at limit: HTTP %d %q", rec.Code, rec.Body)
	}
	if rec := serve(h, "POST", "/", "12345"); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over limit: HTTP %d, want 413", rec.Code)
	}
}

func TestWriteDraining(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteDraining(rec, map[string]string{"status": "draining"})
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") != "1" ||
		rec.Header().Get("Content-Type") != "application/json" ||
		strings.TrimSpace(rec.Body.String()) != `{"status":"draining"}` {
		t.Fatalf("draining answer: HTTP %d headers %v body %q", rec.Code, rec.Header(), rec.Body)
	}
}
