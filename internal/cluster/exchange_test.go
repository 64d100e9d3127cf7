package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"puppies/internal/psp"
)

// stubGateway fronts one stub shard with a single-replica gateway.
func stubGateway(t *testing.T, shard http.HandlerFunc) (gw *Gateway, base, shardURL string) {
	t.Helper()
	stub := httptest.NewServer(shard)
	t.Cleanup(stub.Close)
	gw, err := New(Config{Shards: []string{stub.URL}, Replicas: 1, WriteQuorum: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(gw.Handler())
	t.Cleanup(srv.Close)
	return gw, srv.URL, stub.URL
}

// requireUncharged fails unless the shard's breaker is closed with no
// failure counted.
func requireUncharged(t *testing.T, gw *Gateway, shardURL string) {
	t.Helper()
	st := gw.Stats().Shards[shardURL]
	if st.BreakerState != "closed" || st.Failures != 0 {
		t.Fatalf("shard breaker %s with %d failures, want closed with 0", st.BreakerState, st.Failures)
	}
}

// TestGatewayAbandonedCallsLeaveBreakerClosed: a client that gives up on a
// stalled shard says nothing about the shard, so three abandoned calls
// (the default fail threshold) must not eject it.
func TestGatewayAbandonedCallsLeaveBreakerClosed(t *testing.T) {
	for _, path := range []string{"/v1/images/abc", "/v1/search?id=abc&k=3"} {
		t.Run(path, func(t *testing.T) {
			var arrived atomic.Int64
			gw, base, shardURL := stubGateway(t, func(w http.ResponseWriter, r *http.Request) {
				arrived.Add(1)
				<-r.Context().Done() // stall until the gateway gives up
			})
			for i := 1; i <= 3; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
				if err != nil {
					t.Fatal(err)
				}
				done := make(chan error, 1)
				go func() {
					resp, err := http.DefaultClient.Do(req)
					if err == nil {
						resp.Body.Close()
					}
					done <- err
				}()
				waitFor(t, 5*time.Second, "the call to reach the stalled shard", func() bool {
					return arrived.Load() == int64(i)
				})
				cancel()
				if err := <-done; err == nil {
					t.Fatal("stalled shard produced an answer")
				}
			}
			waitFor(t, 5*time.Second, "the gateway to finish the abandoned calls", func() bool {
				return gw.Stats().Admission.Inflight == 0
			})
			requireUncharged(t, gw, shardURL)
		})
	}
}

// TestGatewaySearchPassesDamagedThrough: a corrupt-class answer to a
// search by ID comes from a healthy shard whose stored copy is damaged. It
// does not charge the breaker, and the client sees ErrCorrupt, not a
// retryable 503 it would retry in vain.
func TestGatewaySearchPassesDamagedThrough(t *testing.T) {
	var hits atomic.Int64
	gw, base, shardURL := stubGateway(t, func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set(psp.ErrorClassHeader, psp.ErrorClassCorrupt)
		http.Error(w, "stored signature is damaged", http.StatusInternalServerError)
	})
	client := &psp.Client{BaseURL: base, MaxRetries: 3}
	_, err := client.SearchByID(context.Background(), "abc", 3)
	if !errors.Is(err, psp.ErrCorrupt) || errors.Is(err, psp.ErrRetryable) {
		t.Fatalf("client error = %v, want ErrCorrupt and not ErrRetryable", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("damaged answer was retried: shard hit %d times, want 1", hits.Load())
	}
	requireUncharged(t, gw, shardURL)
}

// TestGatewayForwardsEscapedIDs: an ID that only exists escaped ("%zz") is
// forwarded as the client sent it. Decoded, it would not parse as a shard
// URL, and every such GET would count as a shard failure.
func TestGatewayForwardsEscapedIDs(t *testing.T) {
	gw, base, shardURL := stubGateway(t, psp.NewServer().Handler().ServeHTTP)
	for i := 0; i < 3; i++ {
		if status, _, _ := getBytes(t, base+"/v1/images/%25zz", nil); status != http.StatusNotFound {
			t.Fatalf("GET of an unknown escaped ID: HTTP %d, want 404", status)
		}
	}
	requireUncharged(t, gw, shardURL)
}
