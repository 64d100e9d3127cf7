package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"puppies/internal/faults"
	"puppies/internal/imgplane"
	"puppies/internal/jpegc"
	"puppies/internal/psp"
)

// testJPEG encodes a synthetic image to JPEG bytes.
func testJPEG(t testing.TB) []byte {
	t.Helper()
	const w, h = 32, 24
	img, err := imgplane.New(w, h, 3)
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			img.Planes[0].Pix[i] = float32(100 + 80*math.Sin(float64(x)/6)*math.Cos(float64(y)/8))
			img.Planes[1].Pix[i] = float32(128 + 25*math.Sin(float64(x+y)/9))
			img.Planes[2].Pix[i] = float32(128 + 25*math.Cos(float64(x-y)/7))
		}
	}
	jimg, err := jpegc.FromPlanar(img, jpegc.Options{Quality: 80})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := jimg.Encode(&buf, jpegc.EncodeOptions{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// testCluster is N real pspd handlers behind one gateway, with a fault-
// injecting partition on the gateway→shard links.
type testCluster struct {
	part   *faults.Partition
	shards []*httptest.Server
	hosts  []string
	gw     *Gateway
	srv    *httptest.Server
}

func newTestCluster(t *testing.T, n int, mod func(*Config)) *testCluster {
	t.Helper()
	tc := &testCluster{part: faults.NewPartition(1)}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		s := httptest.NewServer(psp.NewServer().Handler())
		t.Cleanup(s.Close)
		tc.shards = append(tc.shards, s)
		tc.hosts = append(tc.hosts, strings.TrimPrefix(s.URL, "http://"))
		urls[i] = s.URL
	}
	cfg := Config{
		Shards:       urls,
		Replicas:     3,
		WriteQuorum:  2,
		Transport:    tc.part.Transport(nil),
		ShardTimeout: 1 * time.Second,
		HedgeDelay:   25 * time.Millisecond,
	}
	if mod != nil {
		mod(&cfg)
	}
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tc.gw = gw
	tc.srv = httptest.NewServer(gw.Handler())
	t.Cleanup(tc.srv.Close)
	return tc
}

// hostOf maps a shard URL back to its host (the partition key).
func hostOf(url string) string { return strings.TrimPrefix(url, "http://") }

// upload POSTs jpeg through the gateway with the given idempotency key and
// returns the assigned image ID.
func (tc *testCluster) upload(t *testing.T, jpeg []byte, key string) string {
	t.Helper()
	id, status, body := tc.tryUpload(t, jpeg, key)
	if status != http.StatusOK {
		t.Fatalf("upload: HTTP %d: %s", status, body)
	}
	return id
}

func (tc *testCluster) tryUpload(t *testing.T, jpeg []byte, key string) (id string, status int, body []byte) {
	t.Helper()
	reqBody, err := json.Marshal(psp.UploadRequest{Image: jpeg})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, tc.srv.URL+"/v1/images", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", resp.StatusCode, body
	}
	var ur psp.UploadResponse
	if err := json.Unmarshal(body, &ur); err != nil {
		t.Fatalf("decode upload response: %v", err)
	}
	return ur.ID, resp.StatusCode, body
}

// getBytes GETs a URL and returns status, headers, body.
func getBytes(t *testing.T, url string, hdr http.Header) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// shardHas reports whether the shard at url serves id with exactly jpeg.
func shardHas(t *testing.T, url, id string, jpeg []byte) bool {
	t.Helper()
	status, _, body := getBytes(t, url+"/v1/images/"+id, nil)
	return status == http.StatusOK && bytes.Equal(body, jpeg)
}

func TestGatewayConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted an empty shard list")
	}
	if _, err := New(Config{Shards: []string{"http://a:1"}, Replicas: 2, WriteQuorum: 3}); err == nil {
		t.Error("New accepted write quorum > replicas")
	}
	if _, err := New(Config{Shards: []string{"ftp://a:1"}}); err == nil {
		t.Error("New accepted a non-http shard URL")
	}
}

func TestGatewayUploadReplicatesToAllReplicas(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	jpeg := testJPEG(t)
	id := tc.upload(t, jpeg, "key-replicate")

	if want := deriveID("key-replicate"); id != want {
		t.Fatalf("assigned id %q, want derived %q", id, want)
	}
	order := tc.gw.ReplicaOrder(id)
	if len(order) != 3 {
		t.Fatalf("replica order %v, want 3 shards", order)
	}
	// The client is acked at quorum 2; the third replica lands async.
	waitFor(t, 3*time.Second, "full replication", func() bool {
		for _, u := range order {
			if !shardHas(t, u, id, jpeg) {
				return false
			}
		}
		return true
	})

	// The gateway serves it back byte-identically.
	status, hdr, body := getBytes(t, tc.srv.URL+"/v1/images/"+id, nil)
	if status != http.StatusOK || !bytes.Equal(body, jpeg) {
		t.Fatalf("gateway GET: status %d, %d bytes (want 200, %d bytes)", status, len(body), len(jpeg))
	}
	if hdr.Get("ETag") == "" {
		t.Error("gateway GET dropped the shard ETag")
	}
}

func TestGatewayUploadIdempotentRetry(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	jpeg := testJPEG(t)
	id1 := tc.upload(t, jpeg, "key-retry")
	id2 := tc.upload(t, jpeg, "key-retry")
	if id1 != id2 {
		t.Fatalf("retry with the same key assigned %q then %q", id1, id2)
	}
	// No shard accumulated duplicates.
	for _, s := range tc.shards {
		status, _, body := getBytes(t, s.URL+"/v1/images", nil)
		if status != http.StatusOK {
			t.Fatalf("shard list: HTTP %d", status)
		}
		var lr psp.ListResponse
		if err := json.Unmarshal(body, &lr); err != nil {
			t.Fatal(err)
		}
		if len(lr.IDs) > 1 {
			t.Fatalf("shard %s stores %v, want at most one id", s.URL, lr.IDs)
		}
	}
}

// TestGatewayUploadReusedKeyConflicts: the gateway derives the image ID
// from the Idempotency-Key, so a second upload of other bytes under the
// same key must come back 409 from every replica, not as an ack of the
// first image.
func TestGatewayUploadReusedKeyConflicts(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	a := testJPEG(t)
	img, err := jpegc.Decode(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := img.Encode(&buf, jpegc.EncodeOptions{Tables: jpegc.TablesOptimized}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if bytes.Equal(a, b) {
		t.Fatal("re-encode produced identical bytes")
	}

	id := tc.upload(t, a, "key-reuse")
	// The client is acked at quorum 2; the third replica lands async, and
	// every replica must hold the first image before the reuse can conflict
	// on all of them.
	waitFor(t, 3*time.Second, "full replication", func() bool {
		for _, u := range tc.gw.ReplicaOrder(id) {
			if !shardHas(t, u, id, a) {
				return false
			}
		}
		return true
	})
	if _, status, body := tc.tryUpload(t, b, "key-reuse"); status != http.StatusConflict {
		t.Fatalf("reused key with other bytes: HTTP %d (%s), want 409", status, body)
	}
	if status, _, got := getBytes(t, tc.srv.URL+"/v1/images/"+id, nil); status != http.StatusOK || !bytes.Equal(got, a) {
		t.Fatalf("GET %s: HTTP %d, first image kept = %v", id, status, bytes.Equal(got, a))
	}
	if got := tc.upload(t, a, "key-reuse"); got != id {
		t.Fatalf("identical replay assigned %q, want %q", got, id)
	}
}

func TestGatewayUploadQuorumFailure(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	id := deriveID("key-quorum-fail")
	order := tc.gw.ReplicaOrder(id)
	tc.part.Isolate(hostOf(order[0]), faults.LinkUnreachable)
	tc.part.Isolate(hostOf(order[1]), faults.LinkUnreachable)

	_, status, _ := tc.tryUpload(t, testJPEG(t), "key-quorum-fail")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("upload with 2/3 replicas down: HTTP %d, want 503", status)
	}
	if got := tc.gw.Stats().UploadQuorumFailures; got != 1 {
		t.Fatalf("UploadQuorumFailures=%d, want 1", got)
	}

	// A retry with the same key after the partition heals targets the same
	// id and succeeds.
	tc.part.HealAll()
	if got := tc.upload(t, testJPEG(t), "key-quorum-fail"); got != id {
		t.Fatalf("post-heal retry assigned %q, want %q", got, id)
	}
}

func TestGatewayUploadRejectsGarbageUnanimously(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	_, status, body := tc.tryUpload(t, []byte("not a jpeg"), "key-garbage")
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("garbage upload: HTTP %d (%s), want 422 passthrough", status, body)
	}
	if tc.gw.Stats().UploadQuorumFailures != 0 {
		t.Error("deterministic rejection was miscounted as a quorum failure")
	}
}

// TestGatewayCrashPartitionMatrix is the fault matrix: with one replica's
// link failing in each mode, both uploads and reads keep succeeding with
// zero client-visible errors.
func TestGatewayCrashPartitionMatrix(t *testing.T) {
	modes := []struct {
		name string
		mode faults.LinkMode
	}{
		{"unreachable", faults.LinkUnreachable},
		{"blackhole", faults.LinkBlackhole},
		{"drop-replies", faults.LinkDropReplies},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			tc := newTestCluster(t, 3, func(cfg *Config) {
				cfg.ShardTimeout = 300 * time.Millisecond
			})
			jpeg := testJPEG(t)

			// Seed one image while healthy and let it reach all replicas.
			seedID := tc.upload(t, jpeg, "seed-"+m.name)
			waitFor(t, 3*time.Second, "seed replication", func() bool {
				for _, u := range tc.gw.ReplicaOrder(seedID) {
					if !shardHas(t, u, seedID, jpeg) {
						return false
					}
				}
				return true
			})

			// Fault the seed's primary link, then read through the gateway:
			// the request must fail over (or hedge past the hang) and serve
			// identical bytes.
			primary := tc.gw.ReplicaOrder(seedID)[0]
			tc.part.Isolate(hostOf(primary), m.mode)
			for i := 0; i < 3; i++ {
				status, _, body := getBytes(t, tc.srv.URL+"/v1/images/"+seedID, nil)
				if status != http.StatusOK || !bytes.Equal(body, jpeg) {
					t.Fatalf("GET %d under %s: status %d, want clean 200", i, m.name, status)
				}
			}

			// Uploads also keep working: any key whose replica set includes
			// the faulted shard still reaches quorum 2/3.
			upID := tc.upload(t, jpeg, "up-"+m.name)
			status, _, body := getBytes(t, tc.srv.URL+"/v1/images/"+upID, nil)
			if status != http.StatusOK || !bytes.Equal(body, jpeg) {
				t.Fatalf("read-back of upload under %s: status %d", m.name, status)
			}
			if tc.gw.Stats().Failovers == 0 && tc.gw.Stats().Hedges == 0 {
				t.Error("no failover or hedge recorded though the primary link was down")
			}
		})
	}
}

// TestGatewayHeaderPassthrough pins the proxy's response contract: status
// codes and the psp protocol headers cross the gateway unchanged.
func TestGatewayHeaderPassthrough(t *testing.T) {
	cases := []struct {
		name       string
		status     int
		hdr        map[string]string
		body       string
		wantStatus int
		wantHdr    map[string]string
	}{
		{
			name:       "ok-with-validators",
			status:     http.StatusOK,
			hdr:        map[string]string{"ETag": `"abc123"`, "Cache-Control": "no-cache", "Content-Type": "image/jpeg"},
			body:       "JPEGBYTES",
			wantStatus: http.StatusOK,
			wantHdr:    map[string]string{"ETag": `"abc123"`, "Cache-Control": "no-cache", "Content-Type": "image/jpeg"},
		},
		{
			name:       "corrupt-class",
			status:     http.StatusInternalServerError,
			hdr:        map[string]string{psp.ErrorClassHeader: psp.ErrorClassCorrupt},
			body:       "stored image is damaged",
			wantStatus: http.StatusInternalServerError,
			wantHdr:    map[string]string{psp.ErrorClassHeader: psp.ErrorClassCorrupt},
		},
		{
			name:       "retry-after-on-503",
			status:     http.StatusServiceUnavailable,
			hdr:        map[string]string{"Retry-After": "7"},
			body:       "overloaded",
			wantStatus: http.StatusServiceUnavailable,
			wantHdr:    map[string]string{"Retry-After": "7"},
		},
		{
			name:       "not-found",
			status:     http.StatusNotFound,
			wantStatus: http.StatusNotFound,
		},
		{
			name:       "deterministic-400",
			status:     http.StatusBadRequest,
			body:       "bad spec",
			wantStatus: http.StatusBadRequest,
		},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			var hits atomic.Int64
			stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				hits.Add(1)
				for k, v := range tt.hdr {
					w.Header().Set(k, v)
				}
				w.WriteHeader(tt.status)
				_, _ = io.WriteString(w, tt.body)
			}))
			defer stub.Close()
			gw, err := New(Config{
				Shards: []string{stub.URL}, Replicas: 1, WriteQuorum: 1,
				ShardTimeout: time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(gw.Handler())
			defer srv.Close()

			status, hdr, body := getBytes(t, srv.URL+"/v1/images/abc", nil)
			if status != tt.wantStatus {
				t.Fatalf("status %d, want %d", status, tt.wantStatus)
			}
			for k, v := range tt.wantHdr {
				if got := hdr.Get(k); got != v {
					t.Errorf("header %s = %q, want %q", k, got, v)
				}
			}
			if tt.wantStatus == http.StatusOK && string(body) != tt.body {
				t.Errorf("body %q, want %q", body, tt.body)
			}
			// Status-dependent retry semantics live in the client; the
			// gateway must answer from its single replica without retrying
			// terminal statuses itself.
			if tt.wantStatus == http.StatusBadRequest && hits.Load() != 1 {
				t.Errorf("deterministic 400 hit the shard %d times, want 1", hits.Load())
			}
		})
	}
}

// TestGatewayTypedErrorsThroughClient is the end-to-end satellite check: a
// psp.Client pointed at the gateway still classifies errors (and stops
// retrying corrupt ones) because the class header crosses the proxy intact.
func TestGatewayTypedErrorsThroughClient(t *testing.T) {
	var hits atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set(psp.ErrorClassHeader, psp.ErrorClassCorrupt)
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = io.WriteString(w, "stored image is damaged")
	}))
	defer stub.Close()
	gw, err := New(Config{
		Shards: []string{stub.URL}, Replicas: 1, WriteQuorum: 1,
		ShardTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(gw.Handler())
	defer srv.Close()

	client := &psp.Client{BaseURL: srv.URL, MaxRetries: 3}
	_, err = client.FetchImage(context.Background(), "abc")
	if !errors.Is(err, psp.ErrCorrupt) {
		t.Fatalf("client error = %v, want ErrCorrupt", err)
	}
	if errors.Is(err, psp.ErrRetryable) {
		t.Fatal("corrupt-class error still classified retryable through the gateway")
	}
	if hits.Load() != 1 {
		t.Fatalf("corrupt response was retried: shard hit %d times, want 1", hits.Load())
	}
}

func TestGatewayRepairAfterPartitionHeals(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	jpeg := testJPEG(t)
	id := deriveID("key-repair")
	order := tc.gw.ReplicaOrder(id)

	// Third replica is dark during the upload: quorum 2/3 still acks.
	tc.part.Isolate(hostOf(order[2]), faults.LinkUnreachable)
	if got := tc.upload(t, jpeg, "key-repair"); got != id {
		t.Fatalf("id %q, want %q", got, id)
	}
	if shardHas(t, order[2], id, jpeg) {
		t.Fatal("partitioned shard received the upload")
	}

	// The straggler drain schedules an immediate background repair, which
	// must fail against the still-dark link (drop #2 after the upload's own
	// drop). Wait for it so the admin walk below is what restores the
	// replica, deterministically.
	waitFor(t, 3*time.Second, "in-partition repair attempt to fail", func() bool {
		return tc.part.Drops(hostOf(order[2])) >= 2
	})

	// Heal, then run the admin repair walk; the missing replica is restored
	// byte-identically.
	tc.part.HealAll()
	resp, err := http.Post(tc.srv.URL+"/v1/admin/repair", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep RepairReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Repaired < 1 {
		t.Fatalf("repair walk repaired %d replicas, want >= 1 (report %+v)", rep.Repaired, rep)
	}
	if !shardHas(t, order[2], id, jpeg) {
		t.Fatal("replica not byte-identical after repair walk")
	}
	if tc.gw.Stats().ReadRepairs < 1 {
		t.Error("statz readRepairs not incremented by the repair walk")
	}
}

// TestGatewayReadVerifyRepairsOrganically: serving a GET triggers the
// one-shot quorum read verification, which finds the under-replicated copy
// and repairs it without any admin intervention.
func TestGatewayReadVerifyRepairsOrganically(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	jpeg := testJPEG(t)
	id := deriveID("key-verify")
	order := tc.gw.ReplicaOrder(id)

	tc.part.Isolate(hostOf(order[2]), faults.LinkUnreachable)
	tc.upload(t, jpeg, "key-verify")
	tc.part.HealAll()

	status, _, body := getBytes(t, tc.srv.URL+"/v1/images/"+id, nil)
	if status != http.StatusOK || !bytes.Equal(body, jpeg) {
		t.Fatalf("gateway GET: status %d", status)
	}
	waitFor(t, 3*time.Second, "read-verify repair", func() bool {
		return shardHas(t, order[2], id, jpeg)
	})
}

func TestGatewayBreakerEjectsAndReadmitsShard(t *testing.T) {
	clk := newStubClock()
	tc := newTestCluster(t, 3, func(cfg *Config) {
		cfg.FailThreshold = 2
		cfg.BreakerCooldown = 100 * time.Millisecond
		cfg.Now = clk.now
	})
	victim := tc.shards[0].URL
	tc.part.Isolate(hostOf(victim), faults.LinkUnreachable)

	// Two failed health probes open the breaker.
	tc.gw.probeOnce(context.Background())
	tc.gw.probeOnce(context.Background())
	st := tc.gw.Stats()
	if st.OpenBreakers != 1 || st.Shards[victim].BreakerState != "open" {
		t.Fatalf("after 2 failed probes: %d open breakers, victim state %q", st.OpenBreakers, st.Shards[victim].BreakerState)
	}

	// Gateway healthz reflects the ejection.
	status, _, body := getBytes(t, tc.srv.URL+"/v1/healthz", nil)
	var gh GatewayHealth
	if err := json.Unmarshal(body, &gh); err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK || gh.Status != "degraded" || gh.Healthy != 2 {
		t.Fatalf("healthz = %d %+v, want 200/degraded/2-healthy", status, gh)
	}

	// Heal the link; the next probe closes the breaker and the shard is
	// back in rotation.
	tc.part.HealAll()
	clk.advance(time.Second)
	tc.gw.probeOnce(context.Background())
	st = tc.gw.Stats()
	if st.OpenBreakers != 0 || st.Shards[victim].BreakerState != "closed" {
		t.Fatalf("after heal: %d open breakers, victim state %q", st.OpenBreakers, st.Shards[victim].BreakerState)
	}
	if st.Shards[victim].BreakerOpens < 1 {
		t.Error("statz breakerOpens not recorded")
	}
}

func TestGatewayStartProbesEjectCrashedShard(t *testing.T) {
	tc := newTestCluster(t, 3, func(cfg *Config) {
		cfg.FailThreshold = 2
		cfg.ProbeInterval = 20 * time.Millisecond
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tc.gw.Start(ctx)

	victim := tc.shards[0]
	victim.Close() // hard crash: connection refused from now on
	waitFor(t, 3*time.Second, "breaker ejection via Start probes", func() bool {
		return tc.gw.Stats().OpenBreakers == 1
	})
}

func TestGatewayListMergesAcrossShards(t *testing.T) {
	tc := newTestCluster(t, 3, func(cfg *Config) {
		cfg.Replicas = 2
		cfg.WriteQuorum = 2
	})
	jpeg := testJPEG(t)
	want := map[string]bool{}
	for i := 0; i < 5; i++ {
		want[tc.upload(t, jpeg, fmt.Sprintf("list-key-%d", i))] = true
	}

	// With R=2 every image survives any single dark shard; the merged
	// listing stays complete.
	tc.part.Isolate(tc.hosts[0], faults.LinkUnreachable)
	status, _, body := getBytes(t, tc.srv.URL+"/v1/images", nil)
	if status != http.StatusOK {
		t.Fatalf("list: HTTP %d", status)
	}
	var lr psp.ListResponse
	if err := json.Unmarshal(body, &lr); err != nil {
		t.Fatal(err)
	}
	if len(lr.IDs) != len(want) {
		t.Fatalf("merged list has %d ids, want %d: %v", len(lr.IDs), len(want), lr.IDs)
	}
	for _, id := range lr.IDs {
		if !want[id] {
			t.Fatalf("unexpected id %q in merged list", id)
		}
	}
}

func TestGatewayMembershipJoinLeaveRebalance(t *testing.T) {
	tc := newTestCluster(t, 2, func(cfg *Config) {
		cfg.Replicas = 2
		cfg.WriteQuorum = 1
	})
	jpeg := testJPEG(t)
	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, tc.upload(t, jpeg, fmt.Sprintf("member-key-%d", i)))
	}
	waitFor(t, 3*time.Second, "initial replication", func() bool {
		for _, id := range ids {
			for _, u := range tc.gw.ReplicaOrder(id) {
				if !shardHas(t, u, id, jpeg) {
					return false
				}
			}
		}
		return true
	})

	// Join a third shard: the synchronous rebalance walk must leave every
	// image fully replicated under the NEW placement.
	third := httptest.NewServer(psp.NewServer().Handler())
	t.Cleanup(third.Close)
	postJSON := func(path string, v any) (int, []byte) {
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(tc.srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		rb, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, rb
	}
	status, body := postJSON("/v1/admin/shards", MembershipChange{Op: "join", Shard: third.URL})
	if status != http.StatusOK {
		t.Fatalf("join: HTTP %d: %s", status, body)
	}
	var mr MembershipResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if !mr.Changed || len(mr.Shards) != 3 {
		t.Fatalf("join response %+v, want changed with 3 members", mr)
	}
	for _, id := range ids {
		for _, u := range tc.gw.ReplicaOrder(id) {
			if !shardHas(t, u, id, jpeg) {
				t.Fatalf("after join: image %s missing from new replica %s", id, u)
			}
		}
		if status, _, got := getBytes(t, tc.srv.URL+"/v1/images/"+id, nil); status != http.StatusOK || !bytes.Equal(got, jpeg) {
			t.Fatalf("after join: gateway GET %s: HTTP %d", id, status)
		}
	}

	// Leave: placement folds back onto the survivors, fully replicated
	// before the call returns.
	status, body = postJSON("/v1/admin/shards", MembershipChange{Op: "leave", Shard: third.URL})
	if status != http.StatusOK {
		t.Fatalf("leave: HTTP %d: %s", status, body)
	}
	for _, id := range ids {
		order := tc.gw.ReplicaOrder(id)
		if len(order) != 2 {
			t.Fatalf("after leave: replica order %v", order)
		}
		for _, u := range order {
			if !shardHas(t, u, id, jpeg) {
				t.Fatalf("after leave: image %s missing from replica %s", id, u)
			}
		}
	}

	// Removing the last shards is refused.
	for _, s := range tc.shards {
		postJSON("/v1/admin/shards", MembershipChange{Op: "leave", Shard: s.URL})
	}
	st := tc.gw.Stats()
	if st.RingShards != 1 {
		t.Fatalf("ring has %d members after leave-all, want the guarded last one", st.RingShards)
	}
}

// TestGatewayRescueServesFromNonReplicaMember: a record living outside its
// replica set (mid-rebalance state) is still served and re-replicated.
func TestGatewayRescueServesFromNonReplicaMember(t *testing.T) {
	tc := newTestCluster(t, 3, func(cfg *Config) {
		cfg.Replicas = 1
		cfg.WriteQuorum = 1
	})
	jpeg := testJPEG(t)

	// Find a key whose single replica is shard 0, store the record on a
	// DIFFERENT shard directly, bypassing placement.
	var id string
	for i := 0; ; i++ {
		key := fmt.Sprintf("rescue-key-%d", i)
		if tc.gw.ReplicaOrder(deriveID(key))[0] == tc.shards[0].URL {
			id = deriveID(key)
			break
		}
	}
	body, err := json.Marshal(psp.UploadRequest{Image: jpeg})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, tc.shards[1].URL+"/v1/images/"+id, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("direct shard PUT: HTTP %d", resp.StatusCode)
	}

	// The replica 404s; the gateway rescues from the off-placement member.
	status, _, got := getBytes(t, tc.srv.URL+"/v1/images/"+id, nil)
	if status != http.StatusOK || !bytes.Equal(got, jpeg) {
		t.Fatalf("rescue GET: HTTP %d", status)
	}
	// And the record is re-replicated onto its assigned replica.
	waitFor(t, 3*time.Second, "rescue re-replication", func() bool {
		return shardHas(t, tc.shards[0].URL, id, jpeg)
	})
}

func TestGatewayDrainingHealthz(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	tc.gw.SetDraining(true)
	status, hdr, body := getBytes(t, tc.srv.URL+"/v1/healthz", nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: HTTP %d, want 503", status)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("draining healthz missing Retry-After")
	}
	var gh GatewayHealth
	if err := json.Unmarshal(body, &gh); err != nil {
		t.Fatal(err)
	}
	if gh.Status != "draining" {
		t.Fatalf("status %q, want draining", gh.Status)
	}
	tc.gw.SetDraining(false)
	if status, _, _ := getBytes(t, tc.srv.URL+"/v1/healthz", nil); status != http.StatusOK {
		t.Fatalf("healthz after undrain: HTTP %d", status)
	}
}
