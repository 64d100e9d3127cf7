package psp

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"puppies/internal/spine"
)

// blockingStore gates Get so tests can hold a request (and its admission
// unit) in flight for as long as they need.
type blockingStore struct {
	Store
	gate chan struct{}
}

func (b *blockingStore) Get(id string) ([]byte, []byte, bool, error) {
	<-b.gate
	return b.Store.Get(id)
}

// overloadedServer builds a capacity-1 PSP with one stored image and a gate
// that blocks GETs, plus an httptest server over its handler.
func overloadedServer(t *testing.T, wait time.Duration, queue int) (*Server, *blockingStore, *httptest.Server) {
	t.Helper()
	bs := &blockingStore{Store: NewMemStore(), gate: make(chan struct{})}
	storeImage(t, bs.Store, "img", testJPEG(t, 64, 48))
	s := NewServerWith(bs)
	s.MaxInflight = 1
	s.AdmitWait = wait
	s.AdmitQueue = queue
	s.AdmitRetryAfter = 100 * time.Millisecond
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, bs, ts
}

// holdInflight starts a GET that parks inside the gated store, occupying the
// whole admission capacity, and returns a done channel for its completion.
func holdInflight(t *testing.T, s *Server, ts *httptest.Server) chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/images/img")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = errors.New("holder got " + resp.Status)
			}
		}
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Statz().Admission.Inflight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("holder never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	return done
}

func TestOverloadShedTimeout(t *testing.T) {
	s, bs, ts := overloadedServer(t, 30*time.Millisecond, 8)
	done := holdInflight(t, s, ts)

	// Second request queues, exceeds the wait bound, and is shed crisply.
	start := time.Now()
	resp, err := http.Get(ts.URL + "/v1/images/img")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("shed took %v, want ~30ms", d)
	}
	if ra := ParseRetryAfter(resp.Header); ra <= 0 {
		t.Fatalf("Retry-After %q did not parse to a positive duration", resp.Header.Get("Retry-After"))
	}
	if cls := resp.Header.Get(errorClassHeader); cls != errorClassOverloaded {
		t.Fatalf("error class %q, want %q", cls, errorClassOverloaded)
	}
	if st := s.Statz().Admission; st.ShedTimeout != 1 {
		t.Fatalf("stats %+v, want ShedTimeout=1", st)
	}

	close(bs.gate)
	if err := <-done; err != nil {
		t.Fatalf("holder failed: %v", err)
	}
}

func TestOverloadClientTypesShedAsOverloaded(t *testing.T) {
	s, bs, ts := overloadedServer(t, 20*time.Millisecond, 8)
	done := holdInflight(t, s, ts)
	defer func() { close(bs.gate); <-done }()

	c := &Client{BaseURL: ts.URL, MaxRetries: -1}
	_, err := c.FetchImage(context.Background(), "img")
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if !errors.Is(err, ErrRetryable) {
		t.Fatalf("err = %v, must also be ErrRetryable", err)
	}
	var se *StatusError
	if !errors.As(err, &se) || se.RetryAfter <= 0 {
		t.Fatalf("shed response must carry Retry-After, got %v", err)
	}
	if st := c.Stats(); st.Overloaded != 1 {
		t.Fatalf("client stats %+v, want Overloaded=1", st)
	}
}

func TestOverloadShedQueueFull(t *testing.T) {
	s, bs, ts := overloadedServer(t, 5*time.Second, 1)
	done := holdInflight(t, s, ts)

	// One request fills the queue...
	queued := make(chan error, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/images/img")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = errors.New("queued got " + resp.Status)
			}
		}
		queued <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Statz().Admission.Queued != 1 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}

	// ...so the next is rejected instantly, well before any wait bound.
	start := time.Now()
	resp, err := http.Get(ts.URL + "/v1/images/img")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("queue-full shed took %v, want instant", d)
	}
	if st := s.Statz().Admission; st.ShedQueueFull != 1 {
		t.Fatalf("stats %+v, want ShedQueueFull=1", st)
	}

	close(bs.gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := <-queued; err != nil {
		t.Fatal(err)
	}
}

func TestOverloadShedUnderDrain(t *testing.T) {
	s, bs, ts := overloadedServer(t, 5*time.Second, 8)
	done := holdInflight(t, s, ts)

	s.SetDraining(true)
	// Draining: a request that would queue is shed immediately instead of
	// building a backlog the shutdown is about to abandon.
	resp, err := http.Get(ts.URL + "/v1/images/img")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 while draining", resp.StatusCode)
	}
	if st := s.Statz().Admission; st.ShedDraining != 1 {
		t.Fatalf("stats %+v, want ShedDraining=1", st)
	}

	close(bs.gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Free capacity still admits while draining: in-flight work finished, a
	// cheap request on the fast path keeps being served.
	resp, err = http.Get(ts.URL + "/v1/images/img")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fast-path status %d while draining, want 200", resp.StatusCode)
	}
}

func TestBatchShedsPerItem(t *testing.T) {
	s, bs, ts := overloadedServer(t, 20*time.Millisecond, 8)
	done := holdInflight(t, s, ts)
	defer func() { close(bs.gate); <-done }()

	// The batch envelope is admitted (weight 0), but every item needs its
	// own unit: with capacity fully held, each item sheds into its own
	// result slot — the envelope still answers 200.
	c := &Client{BaseURL: ts.URL, MaxRetries: -1}
	jpeg := testJPEG(t, 64, 48)
	results, err := c.UploadBatch(context.Background(), []BatchUpload{
		{Image: jpeg}, {Image: jpeg},
	})
	if err != nil {
		t.Fatalf("envelope must not fail on per-item sheds: %v", err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	for i, res := range results {
		if res.Status != http.StatusTooManyRequests {
			t.Fatalf("item %d: status %d (%q), want per-item 429", i, res.Status, res.Error)
		}
		if res.ID != "" {
			t.Fatalf("item %d: shed item must not carry an ID", i)
		}
	}
}

func TestClientHonorsRetryAfterExactly(t *testing.T) {
	// When the server names a delay, the client uses it verbatim — no
	// jitter, no exponential floor — because the server knows when capacity
	// frees up.
	var calls int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls == 1 {
			w.Header().Set("Retry-After", "0.123")
			w.Header().Set(errorClassHeader, errorClassOverloaded)
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"ids":[]}`))
	}))
	defer ts.Close()

	var waits []time.Duration
	c := &Client{
		BaseURL: ts.URL,
		sleep: func(ctx context.Context, d time.Duration) error {
			waits = append(waits, d)
			return nil
		},
	}
	if _, err := c.ListImages(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(waits) != 1 || waits[0] != 123*time.Millisecond {
		t.Fatalf("waits = %v, want exactly [123ms]", waits)
	}
	st := c.Stats()
	if st.Attempts != 2 || st.Retries != 1 || st.Overloaded != 1 || st.RetryAfterHonored != 1 || st.Exhausted != 0 {
		t.Fatalf("client stats %+v", st)
	}
}

func TestStatzExposesAdmissionAndLatency(t *testing.T) {
	s := NewServer()
	storeImage(t, s.st(), "img", testJPEG(t, 64, 48))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/v1/images/img")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var statz StatzResponse
	if err := json.NewDecoder(resp.Body).Decode(&statz); err != nil {
		t.Fatal(err)
	}
	if statz.Admission.Capacity <= 0 {
		t.Fatalf("admission capacity %d, want > 0", statz.Admission.Capacity)
	}
	if statz.Admission.Admitted < 3 {
		t.Fatalf("admitted %d, want >= 3", statz.Admission.Admitted)
	}
	lat, ok := statz.LatencyNs[routeGet]
	if !ok {
		t.Fatalf("latencyNs missing %q: %v", routeGet, statz.LatencyNs)
	}
	if lat.Count != 3 || lat.P99Ns <= 0 {
		t.Fatalf("get latency %+v", lat)
	}
	if _, ok := statz.LatencyNs[routeUpload]; ok {
		t.Fatal("untouched route must not report a histogram")
	}
}

func TestRetryAfterHeaderIsFractionalSeconds(t *testing.T) {
	rec := httptest.NewRecorder()
	spine.WriteOverloaded(rec, 250*time.Millisecond, 0)
	got := rec.Header().Get("Retry-After")
	f, err := strconv.ParseFloat(got, 64)
	if err != nil || f != 0.25 {
		t.Fatalf("Retry-After = %q, want 0.250", got)
	}
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("code %d", rec.Code)
	}
}
