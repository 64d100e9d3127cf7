package cluster

import (
	"bytes"
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"puppies/internal/psp"
	"puppies/internal/spine"
)

// Gateway defaults; every knob is a Config field.
const (
	DefaultReplicas      = 3
	DefaultHedgeDelay    = 100 * time.Millisecond
	DefaultShardTimeout  = 15 * time.Second
	DefaultProbeInterval = 1 * time.Second
)

// batchReplicateConcurrency bounds how many batch items replicate to their
// quorums at once — each item already fans out to R shards, so this
// multiplies into in-flight shard requests.
const batchReplicateConcurrency = 8

// Config parameterizes a Gateway.
type Config struct {
	// Shards is the initial shard membership (base URLs, e.g.
	// "http://127.0.0.1:8754"). At least one is required; membership can
	// change later through the admin endpoint.
	Shards []string
	// Replicas (R) is how many shards store each image. Zero means
	// DefaultReplicas; values above the member count are capped per key.
	Replicas int
	// WriteQuorum (W) is how many replica acks an upload needs before the
	// client is answered. Zero means R/2+1. Must not exceed Replicas.
	WriteQuorum int
	// VNodes is the virtual-node count per shard on the ring (0 means
	// DefaultVNodes).
	VNodes int
	// Transport carries gateway→shard traffic; nil means
	// http.DefaultTransport. Tests inject faults.Partition here.
	Transport http.RoundTripper
	// ShardTimeout bounds each shard attempt (0 means
	// DefaultShardTimeout).
	ShardTimeout time.Duration
	// HedgeDelay is how long a GET waits on one replica before hedging
	// the request to the next one (0 means DefaultHedgeDelay; the slow
	// attempt keeps running and the first success wins).
	HedgeDelay time.Duration
	// MaxBody caps request/response bodies (0 means psp.DefaultMaxUpload).
	MaxBody int64
	// FailThreshold consecutive failures open a shard's breaker;
	// BreakerCooldown/BreakerCooldownMax shape the doubling ejection
	// window. Zeros take the Breaker defaults.
	FailThreshold      int
	BreakerCooldown    time.Duration
	BreakerCooldownMax time.Duration
	// ProbeInterval is the health-check period for Start (0 means
	// DefaultProbeInterval).
	ProbeInterval time.Duration
	// Limits shapes the gateway's own admission control exactly as on
	// psp.Server (transform proxies count double, see routes). Zero
	// MaxInflight means DefaultGatewayInflightPerProc per GOMAXPROCS.
	spine.Limits
	// Now is stubbed in tests (nil means time.Now).
	Now func() time.Time
}

// DefaultGatewayInflightPerProc scales the gateway's default admission
// capacity. Larger than the PSP's because gateway units are mostly I/O
// (proxying, fan-out) rather than DCT work.
const DefaultGatewayInflightPerProc = 32

// shard is the gateway's live state for one member.
type shard struct {
	url     string
	breaker *Breaker

	requests    atomic.Uint64
	failures    atomic.Uint64
	readRepairs atomic.Uint64
	// overloads counts 429 answers from this shard. A shedding shard is
	// alive — its sheds feed failover, not the breaker.
	overloads atomic.Uint64
}

// Gateway fronts N pspd shards as a single PSP endpoint: consistent-hash
// placement, R-way replicated uploads with quorum acks, hedged failover
// reads with asynchronous read repair, per-shard circuit breakers fed by
// health probes and live traffic, and an online rebalance walk on
// membership changes. The shard API it speaks is exactly internal/psp's
// HTTP surface, so clients talk to the gateway with an unchanged
// psp.Client.
type Gateway struct {
	cfg    Config
	client *http.Client

	mu     sync.RWMutex // guards ring + shards
	ring   *Ring
	shards map[string]*shard

	sp *spine.Spine

	uploads              atomic.Uint64
	uploadQuorumFailures atomic.Uint64
	failovers            atomic.Uint64
	hedges               atomic.Uint64
	readRepairs          atomic.Uint64
	divergences          atomic.Uint64

	repairMu       sync.Mutex
	repairInflight map[string]bool

	verifyMu sync.Mutex
	verified map[string]bool
}

// New builds a Gateway over the configured shards.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster: no shards configured")
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = DefaultReplicas
	}
	if cfg.WriteQuorum <= 0 {
		cfg.WriteQuorum = cfg.Replicas/2 + 1
	}
	if cfg.WriteQuorum > cfg.Replicas {
		return nil, fmt.Errorf("cluster: write quorum %d exceeds replicas %d", cfg.WriteQuorum, cfg.Replicas)
	}
	if cfg.ShardTimeout <= 0 {
		cfg.ShardTimeout = DefaultShardTimeout
	}
	if cfg.HedgeDelay <= 0 {
		cfg.HedgeDelay = DefaultHedgeDelay
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = psp.DefaultMaxUpload
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	g := &Gateway{
		cfg:            cfg,
		client:         &http.Client{Transport: cfg.Transport},
		sp:             spine.New(cfg.Limits, DefaultGatewayInflightPerProc),
		ring:           NewRing(cfg.VNodes),
		shards:         make(map[string]*shard),
		repairInflight: make(map[string]bool),
		verified:       make(map[string]bool),
	}
	for _, raw := range cfg.Shards {
		if _, err := g.addShard(raw); err != nil {
			return nil, err
		}
	}
	return g, nil
}

func normalizeShardURL(raw string) (string, error) {
	u := strings.TrimRight(strings.TrimSpace(raw), "/")
	if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
		return "", fmt.Errorf("cluster: shard %q is not an http(s) URL", raw)
	}
	return u, nil
}

// addShard registers url on the ring; reports whether membership changed.
// Caller must not hold g.mu.
func (g *Gateway) addShard(raw string) (bool, error) {
	u, err := normalizeShardURL(raw)
	if err != nil {
		return false, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.ring.Add(u) {
		return false, nil
	}
	g.shards[u] = &shard{
		url:     u,
		breaker: NewBreaker(g.cfg.FailThreshold, g.cfg.BreakerCooldown, g.cfg.BreakerCooldownMax, g.cfg.Now),
	}
	return true, nil
}

// removeShard drops url from the ring; reports whether membership changed.
func (g *Gateway) removeShard(raw string) (bool, error) {
	u, err := normalizeShardURL(raw)
	if err != nil {
		return false, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.ring.Remove(u) {
		return false, nil
	}
	delete(g.shards, u)
	return true, nil
}

// SetDraining flips the gateway's own healthz to 503 so an upstream load
// balancer stops routing to it before shutdown. Admission tightens too:
// requests that would queue are shed immediately.
func (g *Gateway) SetDraining(v bool) { g.sp.SetDraining(v) }

// members snapshots the current shard set.
func (g *Gateway) members() []*shard {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]*shard, 0, len(g.shards))
	for _, sh := range g.shards {
		out = append(out, sh)
	}
	return out
}

// replicaShards returns the shard structs for key's replica set, ring
// order.
func (g *Gateway) replicaShards(key string) []*shard {
	g.mu.RLock()
	defer g.mu.RUnlock()
	reps := g.ring.Replicas(key, g.cfg.Replicas)
	out := make([]*shard, 0, len(reps))
	for _, u := range reps {
		if sh := g.shards[u]; sh != nil {
			out = append(out, sh)
		}
	}
	return out
}

// ReplicaOrder exposes key's replica URLs in ring order (debugging, tests).
func (g *Gateway) ReplicaOrder(key string) []string {
	shs := g.replicaShards(key)
	out := make([]string, len(shs))
	for i, sh := range shs {
		out[i] = sh.url
	}
	return out
}

// routeOrder is replicaShards reordered for reads: breaker-admitted shards
// first (ring order preserved), ejected shards appended as a last resort so
// a stale breaker can never turn a servable request into an error.
func (g *Gateway) routeOrder(key string) []*shard {
	reps := g.replicaShards(key)
	allowed := make([]*shard, 0, len(reps))
	var blocked []*shard
	for _, sh := range reps {
		if sh.breaker.Allow() {
			allowed = append(allowed, sh)
		} else {
			blocked = append(blocked, sh)
		}
	}
	return append(allowed, blocked...)
}

// otherMembers returns members outside key's replica set — the rescue path
// for GETs racing a rebalance.
func (g *Gateway) otherMembers(key string) []*shard {
	g.mu.RLock()
	defer g.mu.RUnlock()
	reps := g.ring.Replicas(key, g.cfg.Replicas)
	in := make(map[string]bool, len(reps))
	for _, u := range reps {
		in[u] = true
	}
	var out []*shard
	for _, u := range g.ring.Members() {
		if !in[u] {
			out = append(out, g.shards[u])
		}
	}
	return out
}

// answer is one shard's outcome, collected from a fan-out goroutine.
type answer struct {
	sh   *shard
	o    psp.Outcome
	resp *psp.Reply
}

// exchange is the gateway's one shard call. It runs psp.Attempt, the
// attempt psp.Client makes, bounded by ShardTimeout and MaxBody (a larger
// answer is Down, never truncated bytes), and reads the answer as exactly
// one psp.Outcome; resp is nil unless the shard answered. exchange alone
// feeds the shard's counters and breaker, from one table: Down is a
// failure, Abandoned counts nothing, and every other outcome is a success.
// A shard that sheds, 404s or reports a damaged copy is alive, and
// ejecting it would only push its load onto the others. Shed also counts
// an overload.
func (g *Gateway) exchange(ctx context.Context, sh *shard, method, pathQuery string, body []byte, hdr http.Header) (psp.Outcome, *psp.Reply) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	resp, err := psp.Attempt(ctx, g.client, g.cfg.ShardTimeout, g.cfg.MaxBody, method, sh.url+pathQuery, rd, hdr)
	o := psp.Down
	switch {
	case err == nil:
		o = psp.StatusOutcome(resp.Status, resp.Header.Get(psp.ErrorClassHeader))
	case ctx.Err() != nil:
		return psp.Abandoned, nil
	}
	sh.requests.Add(1)
	switch o {
	case psp.Down:
		sh.failures.Add(1)
		sh.breaker.OnFailure()
		return o, resp
	case psp.Shed:
		sh.overloads.Add(1)
	}
	sh.breaker.OnSuccess()
	return o, resp
}

// fanOut runs one exchange per member in parallel and returns the answers
// in member order once every exchange has finished.
func (g *Gateway) fanOut(ctx context.Context, members []*shard, method, pathQuery string, body []byte, hdr http.Header) []answer {
	out := make([]answer, len(members))
	var wg sync.WaitGroup
	for i, sh := range members {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			o, resp := g.exchange(ctx, sh, method, pathQuery, body, hdr)
			out[i] = answer{sh: sh, o: o, resp: resp}
		}(i, sh)
	}
	wg.Wait()
	return out
}

// passthroughHeaders are copied from shard responses verbatim so clients
// keep the single-node response contract: strong ETags stay revalidatable
// and X-PSP-Error-Class/Retry-After keep psp.Client's typed-error and
// backoff semantics end-to-end.
var passthroughHeaders = []string{
	"Content-Type",
	"ETag",
	"Cache-Control",
	"Retry-After",
	psp.ErrorClassHeader,
}

func writeShardResp(w http.ResponseWriter, resp *psp.Reply) {
	for _, k := range passthroughHeaders {
		if v := resp.Header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	if resp.Status != http.StatusNotModified {
		w.Header().Set("Content-Length", strconv.Itoa(len(resp.Body)))
	}
	w.WriteHeader(resp.Status)
	if resp.Status != http.StatusNotModified {
		_, _ = w.Write(resp.Body)
	}
}

// writeUnavailable answers 503 with a Retry-After of at least one second
// (or the largest shard-provided value), keeping gateway failures inside
// the client's retry protocol.
func (g *Gateway) writeUnavailable(w http.ResponseWriter, retryAfter time.Duration, msg string) {
	secs := int64(1)
	if s := int64((retryAfter + time.Second - 1) / time.Second); s > secs {
		secs = s
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	http.Error(w, msg, http.StatusServiceUnavailable)
}

// Handler returns the gateway HTTP API. Client-facing routes mirror
// internal/psp exactly; /v1/admin/* adds membership and repair control:
//
//	GET  /v1/healthz                      gateway + shard health
//	GET  /v1/statz                        cluster + per-shard counters
//	GET  /v1/images                       merged listing across shards
//	POST /v1/images                       replicated upload (quorum W)
//	POST /v1/images:batch                 multipart batch of replicated uploads
//	GET  /v1/images/{id}[...]             failover proxy to replicas
//	GET  /v1/admin/shards                 membership + breaker states
//	POST /v1/admin/shards                 {"op":"join"|"leave","shard":URL}
//	POST /v1/admin/repair                 full verify/re-replicate walk
func (g *Gateway) Handler() http.Handler {
	return g.sp.Handler(g.routes())
}

// routes is the gateway's route table. Client-facing routes carry the
// PSP's names and costs, except that search pays the heavy weight because
// it fans out to every shard. healthz, statz and admin routes are unnamed,
// so they bypass admission: they are how operators observe and repair an
// overloaded cluster.
func (g *Gateway) routes() []spine.Route {
	return []spine.Route{
		{Pattern: "GET /v1/healthz", Handler: g.handleHealthz},
		{Pattern: "GET /v1/statz", Handler: g.handleStatz},
		{Pattern: "GET /v1/admin/shards", Handler: g.handleShardsGet},
		{Pattern: "POST /v1/admin/shards", Handler: g.handleShardsPost},
		{Pattern: "POST /v1/admin/repair", Handler: g.handleRepair},
		{Pattern: "GET /v1/images", Name: "list", Cost: 1, Handler: g.handleList},
		{Pattern: "POST /v1/images", Name: "upload", Cost: 1, Handler: g.handleUpload},
		{Pattern: "POST /v1/images:batch", Name: "batch", Handler: g.handleBatch},
		{Pattern: "GET /v1/images/{id}", Name: "get", Cost: 1, Handler: g.handleProxy},
		{Pattern: "GET /v1/images/{id}/params", Name: "params", Cost: 1, Handler: g.handleProxy},
		{Pattern: "GET /v1/images/{id}/transformed", Name: "transformed", Cost: 2, Handler: g.handleProxy},
		{Pattern: "GET /v1/images/{id}/pixels", Name: "pixels", Cost: 2, Handler: g.handleProxy},
		{Pattern: "GET /v1/search", Name: "search", Cost: 2, Handler: g.handleSearch},
		{Pattern: "POST /v1/search", Name: "search", Cost: 2, Handler: g.handleSearch},
	}
}

// GatewayHealth is the gateway's GET /v1/healthz body.
type GatewayHealth struct {
	Status  string `json:"status"`
	Shards  int    `json:"shards"`
	Healthy int    `json:"healthy"`
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if g.sp.Draining() {
		spine.WriteDraining(w, GatewayHealth{Status: "draining"})
		return
	}
	g.mu.RLock()
	total := len(g.shards)
	healthy := 0
	for _, sh := range g.shards {
		if sh.breaker.State() != BreakerOpen {
			healthy++
		}
	}
	g.mu.RUnlock()
	h := GatewayHealth{Status: "ok", Shards: total, Healthy: healthy}
	code := http.StatusOK
	if healthy == 0 {
		h.Status = "unavailable"
		w.Header().Set("Retry-After", "1")
		code = http.StatusServiceUnavailable
	} else if healthy < total {
		h.Status = "degraded"
	}
	spine.WriteJSON(w, code, h)
}

// ShardStatz is the per-shard block of the statz body. BreakerState,
// BreakerOpens, and BreakerRecoveries together let a chaos run assert the
// full ejection lifecycle: the breaker tripped (opens > 0) AND recovered
// (recoveries > 0, state back to closed).
type ShardStatz struct {
	Requests          uint64 `json:"requests"`
	Failures          uint64 `json:"failures"`
	Overloads         uint64 `json:"overloads"`
	ReadRepairs       uint64 `json:"readRepairs"`
	BreakerState      string `json:"breakerState"`
	BreakerOpens      uint64 `json:"breakerOpens"`
	BreakerRecoveries uint64 `json:"breakerRecoveries"`
}

// Statz is the gateway's GET /v1/statz body.
type Statz struct {
	RingShards           int                   `json:"ringShards"`
	RingPoints           int                   `json:"ringPoints"`
	Replicas             int                   `json:"replicas"`
	WriteQuorum          int                   `json:"writeQuorum"`
	Uploads              uint64                `json:"uploads"`
	UploadQuorumFailures uint64                `json:"uploadQuorumFailures"`
	Failovers            uint64                `json:"failovers"`
	Hedges               uint64                `json:"hedges"`
	ReadRepairs          uint64                `json:"readRepairs"`
	Divergences          uint64                `json:"divergences"`
	OpenBreakers         int                   `json:"openBreakers"`
	Shards               map[string]ShardStatz `json:"shards"`

	spine.Stats
}

// Stats snapshots the cluster counters (the /v1/statz body).
func (g *Gateway) Stats() Statz {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := Statz{
		RingShards:           g.ring.Size(),
		RingPoints:           g.ring.Points(),
		Replicas:             g.cfg.Replicas,
		WriteQuorum:          g.cfg.WriteQuorum,
		Uploads:              g.uploads.Load(),
		UploadQuorumFailures: g.uploadQuorumFailures.Load(),
		Failovers:            g.failovers.Load(),
		Hedges:               g.hedges.Load(),
		ReadRepairs:          g.readRepairs.Load(),
		Divergences:          g.divergences.Load(),
		Shards:               make(map[string]ShardStatz, len(g.shards)),
		Stats:                g.sp.Stats(),
	}
	for u, sh := range g.shards {
		st := sh.breaker.State()
		if st == BreakerOpen {
			out.OpenBreakers++
		}
		out.Shards[u] = ShardStatz{
			Requests:          sh.requests.Load(),
			Failures:          sh.failures.Load(),
			Overloads:         sh.overloads.Load(),
			ReadRepairs:       sh.readRepairs.Load(),
			BreakerState:      st.String(),
			BreakerOpens:      sh.breaker.Opens(),
			BreakerRecoveries: sh.breaker.Recoveries(),
		}
	}
	return out
}

func (g *Gateway) handleStatz(w http.ResponseWriter, r *http.Request) {
	spine.WriteJSON(w, http.StatusOK, g.Stats())
}

// deriveID maps an idempotency key to the image ID deterministically, so a
// client retry (same key) re-targets the same ID and the same replica set,
// and per-shard PUT-by-ID dedupe makes the retry a no-op. The gateway holds
// no upload state at all.
func deriveID(key string) string {
	sum := sha256.Sum256([]byte("psp-gw-id\x00" + key))
	return hex.EncodeToString(sum[:12])
}

func newUploadKey() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("gwk-%d", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// uploadAck is one shard's PUT outcome as the write quorum sees it.
type uploadAck struct {
	sh *shard
	// ok means the shard durably stored the image under the derived ID.
	ok bool
	// repairable marks failures worth re-replicating later; a
	// deterministic rejection (Missing, Refused) is not.
	repairable bool
	resp       *psp.Reply
}

// putReplica stores one replica of an upload under id.
func (g *Gateway) putReplica(sh *shard, id string, body []byte, hdr http.Header) uploadAck {
	o, resp := g.exchange(context.Background(), sh, http.MethodPut, "/v1/images/"+id, body, hdr)
	switch o {
	case psp.Served:
		var ur psp.UploadResponse
		if json.Unmarshal(resp.Body, &ur) == nil && ur.ID == id {
			return uploadAck{sh: sh, ok: true}
		}
		// The shard acked under a different ID (a pre-existing key
		// mapping): its copy is not addressable at our ID.
		g.divergences.Add(1)
		return uploadAck{sh: sh, repairable: true}
	case psp.Missing, psp.Refused:
		return uploadAck{sh: sh, resp: resp}
	}
	// Shed, Down or Damaged: the write did not land. The shard's
	// Retry-After propagates into the quorum-failure hint.
	return uploadAck{sh: sh, repairable: true, resp: resp}
}

// uploadOutcome is a replicated upload's result, decoupled from the HTTP
// response so the single and batch upload routes share one replication
// path.
type uploadOutcome struct {
	// id is set on quorum success.
	id string
	// clientResp passes through a unanimous deterministic shard rejection.
	clientResp *psp.Reply
	// unavailable marks a quorum failure; msg and retryAfter shape the 503.
	unavailable bool
	retryAfter  time.Duration
	msg         string
}

// replicateUpload fans one upload body out to the replica set of its
// derived ID and waits for write quorum (the body of POST /v1/images,
// shared with the batch route).
func (g *Gateway) replicateUpload(body []byte, key, contentType string) uploadOutcome {
	id := deriveID(key)
	replicas := g.replicaShards(id)
	if len(replicas) == 0 {
		return uploadOutcome{unavailable: true, msg: "cluster: no shards"}
	}
	hdr := http.Header{
		"Content-Type":    {"application/json"},
		"Idempotency-Key": {key},
	}
	if contentType != "" {
		hdr.Set("Content-Type", contentType)
	}

	// Fan out to every replica on a detached context: the client is
	// answered at quorum W, and straggler acks (or failures feeding read
	// repair) complete in the background — a canceled fan-out would
	// under-replicate silently.
	acks := make(chan uploadAck, len(replicas))
	for _, sh := range replicas {
		go func(sh *shard) { acks <- g.putReplica(sh, id, body, hdr) }(sh)
	}

	g.uploads.Add(1)
	ackCount := 0
	var failed []*shard
	var clientErr *psp.Reply
	var retryAfter time.Duration
	for i := 0; i < len(replicas); i++ {
		a := <-acks
		switch {
		case a.ok:
			ackCount++
		case a.repairable:
			failed = append(failed, a.sh)
			retryAfter = max(retryAfter, a.resp.RetryAfter())
		default:
			clientErr = a.resp
		}
		if ackCount >= g.cfg.WriteQuorum {
			// Quorum reached: ack the client now, then keep collecting
			// straggler outcomes so failed replicas get re-replicated.
			remaining := len(replicas) - i - 1
			toRepair := append([]*shard(nil), failed...)
			go func() {
				for j := 0; j < remaining; j++ {
					if a := <-acks; !a.ok && a.repairable {
						toRepair = append(toRepair, a.sh)
					}
				}
				for _, sh := range toRepair {
					g.goRepair(id, sh)
				}
			}()
			return uploadOutcome{id: id}
		}
	}
	// Quorum unreachable. A unanimous deterministic rejection (bad JSON,
	// undecodable JPEG, key conflict) passes through as the shard said it;
	// anything else is a retryable 503.
	if clientErr != nil && ackCount == 0 && len(failed) == 0 {
		return uploadOutcome{clientResp: clientErr}
	}
	g.uploadQuorumFailures.Add(1)
	return uploadOutcome{
		unavailable: true,
		retryAfter:  retryAfter,
		msg:         fmt.Sprintf("cluster: %d/%d replica acks, write quorum %d not met", ackCount, len(replicas), g.cfg.WriteQuorum),
	}
}

func (g *Gateway) handleUpload(w http.ResponseWriter, r *http.Request) {
	body, ok := spine.ReadBody(w, r, g.cfg.MaxBody)
	if !ok {
		return
	}
	key := strings.TrimSpace(r.Header.Get("Idempotency-Key"))
	if key == "" {
		key = newUploadKey()
	}
	out := g.replicateUpload(body, key, r.Header.Get("Content-Type"))
	switch {
	case out.id != "":
		spine.WriteJSON(w, http.StatusOK, psp.UploadResponse{ID: out.id})
	case out.clientResp != nil:
		writeShardResp(w, out.clientResp)
	default:
		g.writeUnavailable(w, out.retryAfter, out.msg)
	}
}

// handleBatch accepts the PSP's multipart batch protocol (the spine's
// reader, see spine.ServeBatch) and replicates every item through the ring
// — items hash to different replica sets, so a batch spreads across the
// cluster. Items replicate with bounded concurrency while later parts are
// still streaming in; results keep item order.
func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	g.sp.ServeBatch(w, r, g.cfg.MaxBody, batchReplicateConcurrency, g.replicateItem)
}

// replicateItem replicates one batch item. Raw items are wrapped into an
// UploadRequest document, so shards see the same PUT body either way. The
// body sent is always a fresh copy: straggler PUTs keep reading it after
// quorum, long after the reader has recycled the item's part buffer.
func (g *Gateway) replicateItem(it spine.BatchItem) psp.BatchResult {
	key := it.Key
	if key == "" {
		key = newUploadKey()
	}
	var body []byte
	if it.Raw {
		var err error
		if body, err = json.Marshal(psp.UploadRequest{Image: it.Body, Params: it.Params}); err != nil {
			return psp.BatchResult{Error: fmt.Sprintf("encode upload: %v", err), Status: http.StatusInternalServerError}
		}
	} else {
		body = bytes.Clone(it.Body)
	}
	out := g.replicateUpload(body, key, "application/json")
	switch {
	case out.clientResp != nil:
		return psp.BatchResult{Error: string(bytes.TrimSpace(out.clientResp.Body)), Status: out.clientResp.Status}
	case out.unavailable:
		return psp.BatchResult{Error: out.msg, Status: http.StatusServiceUnavailable}
	}
	return psp.BatchResult{ID: out.id}
}

// handleProxy serves every GET /v1/images/{id}[...] route by trying the
// replica set in ring order with hedged failover: a replica that errors,
// 404s, or reports corruption moves the request to the next one, and a
// replica that merely stalls past HedgeDelay gets raced against the next
// without being abandoned. First usable answer wins; replicas seen missing
// or corrupt are repaired asynchronously.
func (g *Gateway) handleProxy(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	order := g.routeOrder(id)
	if len(order) == 0 {
		g.writeUnavailable(w, 0, "cluster: no shards")
		return
	}
	// RequestURI keeps the client's escaping: a decoded path such as
	// "/v1/images/%zz" would not parse as a shard URL.
	pathQ := r.URL.RequestURI()
	var hdr http.Header
	if inm := r.Header.Get("If-None-Match"); inm != "" {
		hdr = http.Header{"If-None-Match": {inm}}
	}

	results := make(chan answer, len(order))
	next := 0
	launch := func() {
		sh := order[next]
		next++
		go func() {
			o, resp := g.exchange(r.Context(), sh, http.MethodGet, pathQ, nil, hdr)
			results <- answer{sh: sh, o: o, resp: resp}
		}()
	}
	launch()
	outstanding := 1
	hedge := time.NewTimer(g.cfg.HedgeDelay)
	defer hedge.Stop()

	var missing, corrupt []*shard
	var corruptResp *psp.Reply
	var retryAfter time.Duration
	for outstanding > 0 {
		select {
		case res := <-results:
			outstanding--
			switch res.o {
			case psp.Served:
				g.serveProxied(w, r, id, res.sh, res.resp, missing, corrupt)
				return
			case psp.Refused:
				// Deterministic client error (bad spec, …): every replica
				// would say the same; pass it through.
				writeShardResp(w, res.resp)
				return
			case psp.Abandoned:
				return // the client is gone
			case psp.Missing:
				missing = append(missing, res.sh)
			case psp.Damaged:
				corrupt = append(corrupt, res.sh)
				corruptResp = res.resp
			case psp.Shed, psp.Down:
				retryAfter = max(retryAfter, res.resp.RetryAfter())
			}
			if next < len(order) {
				g.failovers.Add(1)
				launch()
				outstanding++
			}
		case <-hedge.C:
			if next < len(order) {
				g.hedges.Add(1)
				launch()
				outstanding++
				hedge.Reset(g.cfg.HedgeDelay)
			}
		}
	}

	// Every replica answered and none could serve. If all of them said
	// 404, the record may still live on a non-replica member (a GET racing
	// a rebalance): rescue from there and schedule the re-replication.
	if len(missing) == len(order) {
		for _, sh := range g.otherMembers(id) {
			if o, resp := g.exchange(r.Context(), sh, http.MethodGet, pathQ, nil, hdr); o == psp.Served {
				g.failovers.Add(1)
				g.serveProxied(w, r, id, sh, resp, missing, corrupt)
				return
			}
		}
		http.Error(w, fmt.Sprintf("image %q not found on any replica", id), http.StatusNotFound)
		return
	}
	if corruptResp != nil {
		writeShardResp(w, corruptResp)
		return
	}
	g.writeUnavailable(w, retryAfter, "cluster: all replicas failed")
}

// serveProxied writes the winning shard response and schedules the
// asynchronous follow-ups: repair of replicas observed missing/corrupt
// during failover and, for raw-image GETs, a one-shot quorum verification
// of the remaining replicas against the served ETag.
func (g *Gateway) serveProxied(w http.ResponseWriter, r *http.Request, id string, from *shard, resp *psp.Reply, missing, corrupt []*shard) {
	for _, sh := range missing {
		g.goRepair(id, sh)
	}
	for _, sh := range corrupt {
		g.goRepair(id, sh)
	}
	if r.URL.Path == "/v1/images/"+id {
		if etag := resp.Header.Get("ETag"); etag != "" && g.markVerified(id) {
			go g.verifyReplicas(id, etag, from)
		}
	}
	writeShardResp(w, resp)
}

// markVerified reserves the one read verification this gateway runs per
// image; clearVerified (on shard re-admission) re-arms all of them.
func (g *Gateway) markVerified(id string) bool {
	g.verifyMu.Lock()
	defer g.verifyMu.Unlock()
	if len(g.verified) > 1<<16 {
		g.verified = make(map[string]bool)
	}
	if g.verified[id] {
		return false
	}
	g.verified[id] = true
	return true
}

func (g *Gateway) clearVerified() {
	g.verifyMu.Lock()
	g.verified = make(map[string]bool)
	g.verifyMu.Unlock()
}

// verifyReplicas is the quorum read check: conditional-GET every other
// replica with the served ETag. A 304 means the replica agrees
// byte-for-byte (strong validator), Missing triggers read repair, Damaged
// an async repair, and a 200 with a different validator is a divergence —
// counted, surfaced in statz, never silently overwritten.
func (g *Gateway) verifyReplicas(id, etag string, served *shard) {
	ctx, cancel := context.WithTimeout(context.Background(), 4*g.cfg.ShardTimeout)
	defer cancel()
	hdr := http.Header{"If-None-Match": {etag}}
	for _, sh := range g.replicaShards(id) {
		if sh == served {
			continue
		}
		o, resp := g.exchange(ctx, sh, http.MethodGet, "/v1/images/"+id, nil, hdr)
		switch o {
		case psp.Served:
			if resp.Header.Get("ETag") != etag {
				g.divergences.Add(1)
			}
		case psp.Missing:
			g.repairSync(ctx, id, sh)
		case psp.Damaged:
			g.goRepair(id, sh)
		}
	}
}

func (g *Gateway) handleList(w http.ResponseWriter, r *http.Request) {
	ids, reachable := g.mergedIDs(r.Context())
	if reachable == 0 {
		g.writeUnavailable(w, 0, "cluster: no shard reachable for listing")
		return
	}
	spine.WriteJSON(w, http.StatusOK, psp.ListResponse{IDs: ids})
}

// mergedIDs unions /v1/images across every member. With R-way replication
// the union over reachable shards is complete as long as each image keeps
// one live replica — the same condition reads need anyway.
func (g *Gateway) mergedIDs(ctx context.Context) (ids []string, reachable int) {
	set := make(map[string]bool)
	for _, res := range g.fanOut(ctx, g.members(), http.MethodGet, "/v1/images", nil, nil) {
		var lr psp.ListResponse
		if res.o != psp.Served || json.Unmarshal(res.resp.Body, &lr) != nil {
			continue
		}
		reachable++
		for _, id := range lr.IDs {
			set[id] = true
		}
	}
	ids = make([]string, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids, reachable
}
