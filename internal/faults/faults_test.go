package faults

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func getReq(t *testing.T, path string) *http.Request {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, "http://psp.test"+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

func TestScriptConsumedInOrder(t *testing.T) {
	in := New(1).Script(nil,
		Fault{Kind: Status503},
		Fault{Kind: None},
		Fault{Kind: Drop},
	)
	want := []Kind{Status503, None, Drop, None, None}
	for i, w := range want {
		got := in.next(getReq(t, "/x")).Kind
		if got != w {
			t.Errorf("request %d: fault %s, want %s", i, got, w)
		}
	}
	if n := in.Count(Status503); n != 1 {
		t.Errorf("503 count = %d, want 1", n)
	}
	if n := in.Count(Drop); n != 1 {
		t.Errorf("drop count = %d, want 1", n)
	}
}

func TestMatchersScopeRules(t *testing.T) {
	in := New(1).Script(PathContains("/transformed"), Fault{Kind: Truncate})
	if k := in.next(getReq(t, "/v1/images/abc")).Kind; k != None {
		t.Errorf("non-matching path got %s", k)
	}
	if k := in.next(getReq(t, "/v1/images/abc/transformed")).Kind; k != Truncate {
		t.Errorf("matching path got %s", k)
	}
	// Script already consumed by the matching request.
	if k := in.next(getReq(t, "/v1/images/abc/transformed")).Kind; k != None {
		t.Errorf("post-script request got %s", k)
	}

	post := New(1).Script(MethodIs(http.MethodPost), Fault{Kind: Drop})
	if k := post.next(getReq(t, "/v1/images")).Kind; k != None {
		t.Errorf("GET matched a POST rule: %s", k)
	}
}

func TestRateIsDeterministicUnderSeed(t *testing.T) {
	draw := func(seed int64) []Kind {
		in := New(seed)
		in.Rule(Rule{Rate: 0.5, Fault: Fault{Kind: Status503}})
		out := make([]Kind, 64)
		for i := range out {
			out[i] = in.next(getReq(t, "/x")).Kind
		}
		return out
	}
	a, b := draw(42), draw(42)
	injected := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d diverged under identical seed: %s vs %s", i, a[i], b[i])
		}
		if a[i] == Status503 {
			injected++
		}
	}
	if injected == 0 || injected == len(a) {
		t.Errorf("rate 0.5 injected %d/%d, want a mix", injected, len(a))
	}
}

func TestMiddlewareFaults(t *testing.T) {
	var handled atomic.Int32
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handled.Add(1)
		_, _ = w.Write([]byte("hello, puppies"))
	})

	in := New(9).Script(nil,
		Fault{Kind: Status503, RetryAfter: 2 * time.Second},
		Fault{Kind: Status503, RetryAfter: 1500 * time.Millisecond},
		Fault{Kind: Drop},
		Fault{Kind: DropResponse},
		Fault{Kind: Truncate},
		Fault{Kind: BitFlip},
	)
	srv := httptest.NewServer(in.Middleware(inner))
	defer srv.Close()

	// Status503, with whole and fractional Retry-After seconds.
	for _, want := range []string{"2", "1.5"} {
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("status %d, want 503", resp.StatusCode)
		}
		if got := resp.Header.Get("Retry-After"); got != want {
			t.Errorf("Retry-After %q, want %q", got, want)
		}
	}
	if n := handled.Load(); n != 0 {
		t.Errorf("503 reached the handler (%d calls)", n)
	}

	// Drop: the client sees a severed stream and the handler never runs.
	if _, err := http.Get(srv.URL); err == nil {
		t.Error("drop delivered a response")
	}
	if n := handled.Load(); n != 0 {
		t.Errorf("drop reached the handler (%d calls)", n)
	}

	// DropResponse: the handler runs, the client sees a severed stream.
	if _, err := http.Get(srv.URL); err == nil {
		t.Error("drop-response delivered a response")
	}
	if n := handled.Load(); n != 1 {
		t.Errorf("drop-response handler calls = %d, want 1", n)
	}

	get := func() []byte {
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	if body := get(); len(body) != len("hello, puppies")/2 {
		t.Errorf("truncated body %d bytes, want %d", len(body), len("hello, puppies")/2)
	}
	body := get()
	diff := 0
	for i := range body {
		if body[i] != "hello, puppies"[i] {
			diff++
		}
	}
	if len(body) != len("hello, puppies") || diff != 1 {
		t.Errorf("bitflip changed %d bytes of %d, want exactly 1 byte changed", diff, len(body))
	}

	// Script exhausted: traffic passes untouched.
	if body := get(); string(body) != "hello, puppies" {
		t.Errorf("pass-through body %q", body)
	}
}

func TestMiddlewareLatency(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("ok"))
	})
	const delay = 30 * time.Millisecond
	in := New(3).Script(nil, Fault{Kind: Latency, Delay: delay})
	srv := httptest.NewServer(in.Middleware(inner))
	defer srv.Close()

	start := time.Now()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if elapsed := time.Since(start); elapsed < delay {
		t.Errorf("request took %s, want >= %s", elapsed, delay)
	}
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status %d after latency", resp.StatusCode)
	}
}
