package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"image/jpeg"
	"io"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"sync"

	"puppies"
	"puppies/internal/cluster"
	"puppies/internal/core"
	"puppies/internal/dataset"
	"puppies/internal/jpegc"
	"puppies/internal/keys"
	"puppies/internal/psp"
	"puppies/internal/transform"
)

// cameraProfile is the serving corpus: QVGA scenes with objects and text,
// saved by stdlib image/jpeg (quality 90, 4:2:0) as a phone or camera
// would. Small photos keep each cold request short, so a run holds enough
// of them for a p99, and keep a corpus several times the coefficient-cache
// budget cheap to generate.
var cameraProfile = dataset.Profile{Name: "camera", W: 320, H: 240, Kind: dataset.KindObjects}

// Per-shard cache budgets, pspd's -cache-bytes and -coeff-cache-bytes.
// servecache splits a budget over 16 LRU shards and rejects entries larger
// than one shard's share, so the coefficient budget's share must hold one
// decoded QVGA 4:2:0 photo (~0.45 MiB; ProtectJPEG keeps these native).
const (
	variantCacheBytes = 32 << 20
	coeffCacheBytes   = 8 << 20
	shards            = 3
	replicas          = 3
)

// photo is one corpus image with its pre-encoded upload body.
type photo struct {
	jpeg, params []byte
	body         []byte // POST /v1/images body
	key          string // Idempotency-Key; the gateway derives the ID from it
	id           string
	coeffBytes   int64
}

func (p *photo) protected() bool { return len(p.params) > 0 }

// makePhotos renders indices [from, from+n) of the camera corpus. Even
// indices are protected with ProtectJPEG when protect is set. Rendering
// runs on GOMAXPROCS goroutines; the result does not depend on their
// number.
func makePhotos(seed int64, from, n int, protect bool, keyPrefix string) ([]*photo, error) {
	g, err := dataset.NewGenerator(cameraProfile, seed)
	if err != nil {
		return nil, err
	}
	out := make([]*photo, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				out[i], errs[i] = makePhoto(g, seed, from+i, protect && (from+i)%2 == 0)
				if out[i] != nil {
					out[i].key = fmt.Sprintf("%s-%d-%d", keyPrefix, seed, from+i)
				}
			}
		}(w)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

func makePhoto(g *dataset.Generator, seed int64, idx int, protect bool) (*photo, error) {
	item := g.Item(idx)
	var buf bytes.Buffer
	if err := jpeg.Encode(&buf, item.Image.Quantize8().ToStdImage(), &jpeg.Options{Quality: 90}); err != nil {
		return nil, err
	}
	p := &photo{jpeg: buf.Bytes()}
	if protect && len(item.Annotations) > 0 {
		// One region per photo: ProtectJPEG widens regions to the 16-pixel
		// MCU grid and falls back to 4:4:4 when two widened regions meet,
		// and the corpus is meant to stay 4:2:0.
		a := item.Annotations[0]
		rects := []core.ROI{{X: a.X, Y: a.Y, W: a.W, H: a.H}}
		ks := []*keys.Pair{keys.NewPairDeterministic(seed*1_000_000 + int64(idx))}
		prot, err := puppies.ProtectJPEG(p.jpeg, puppies.ProtectOptions{Variant: puppies.VariantZ, Regions: rects, Keys: ks})
		if err != nil {
			return nil, fmt.Errorf("camera %d: protect: %w", idx, err)
		}
		p.jpeg, p.params = prot.JPEG, prot.Params
	}
	img, err := jpegc.Decode(bytes.NewReader(p.jpeg))
	if err != nil {
		return nil, err
	}
	p.coeffBytes = int64(img.CoeffBytes())
	body := struct {
		Image  []byte          `json:"image"`
		Params json.RawMessage `json:"params,omitempty"`
	}{p.jpeg, p.params}
	if p.body, err = json.Marshal(body); err != nil {
		return nil, err
	}
	return p, nil
}

// specPath is the request path of a transformed or pixels variant.
func specPath(id, route string, spec transform.Spec) string {
	js, err := json.Marshal(spec)
	if err != nil {
		panic(err) // a Spec always marshals
	}
	return "/v1/images/" + id + "/" + route + "?" + url.Values{"spec": {string(js)}}.Encode()
}

// psCluster is a gateway over three psp.Server shards, each behind its own
// loopback listener, deployed like cluster-demo: production probe cadence,
// hedge delay and admission defaults, no fault injection.
type psCluster struct {
	shards []*shardNode
	gw     *cluster.Gateway
	base   string
	client *http.Client
	hops   *http.Transport
	srvs   []*http.Server
	wg     sync.WaitGroup
	stop   context.CancelFunc
	tr     *tracer
}

type shardNode struct {
	ps  *psp.Server
	url string
}

func (c *psCluster) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	c.srvs = append(c.srvs, srv)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		_ = srv.Serve(ln) // returns ErrServerClosed on close
	}()
	return "http://" + ln.Addr().String(), nil
}

// startCluster boots the shards and the gateway. With a tracer, the
// layer seams are wrapped.
func startCluster(tr *tracer) (*psCluster, error) {
	c := &psCluster{tr: tr}
	var urls []string
	for i := 0; i < shards; i++ {
		var st psp.Store = psp.NewMemStore()
		act := &activeSet{m: map[string][]spanRef{}}
		if tr != nil {
			st = &tracedStore{Store: st, tr: tr, act: act}
		}
		ps := psp.NewServerWith(st)
		ps.VariantCacheBytes, ps.CoeffCacheBytes = variantCacheBytes, coeffCacheBytes
		var h http.Handler = ps.Handler()
		if tr != nil {
			h = tr.shardHandler(h, act)
		}
		u, err := c.listen(h)
		if err != nil {
			c.close()
			return nil, err
		}
		c.shards = append(c.shards, &shardNode{ps: ps, url: u})
		urls = append(urls, u)
	}
	c.hops = &http.Transport{MaxIdleConnsPerHost: 16}
	var rt http.RoundTripper = c.hops
	if tr != nil {
		rt = &hopTransport{tr: tr, base: c.hops}
	}
	gw, err := cluster.New(cluster.Config{Shards: urls, Replicas: replicas, Transport: rt})
	if err != nil {
		c.close()
		return nil, err
	}
	c.gw = gw
	var h http.Handler = gw.Handler()
	if tr != nil {
		h = tr.gatewayHandler(h)
	}
	if c.base, err = c.listen(h); err != nil {
		c.close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.stop = cancel
	gw.Start(ctx)
	c.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	return c, nil
}

func (c *psCluster) close() {
	if c.stop != nil {
		c.stop()
	}
	for _, s := range c.srvs {
		_ = s.Close() // closing listeners and connections; errors are moot at teardown
	}
	c.wg.Wait()
	if c.client != nil {
		c.client.CloseIdleConnections()
	}
	if c.hops != nil {
		c.hops.CloseIdleConnections()
	}
}

// do sends one request with a pre-encoded body and returns the raw
// response body. traced requests open a client span.
func (c *psCluster) do(method, path string, body []byte, key string, traced bool, route string) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	if traced {
		t, root := c.tr.start(route, key)
		req.Header.Set(traceHeader, t.ref(root))
		defer func() { t.close(root, c.tr.now()) }()
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// upload stores photos through the gateway and records their IDs.
func (c *psCluster) upload(photos []*photo) error {
	for _, p := range photos {
		code, body, err := c.do(http.MethodPost, "/v1/images", p.body, p.key, false, "")
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("upload: status %d: %s", code, body)
		}
		var r psp.UploadResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		p.id = r.ID
	}
	return nil
}

// counters is the sum of the cluster's Statz/Stats counters the per-layer
// metrics are deltas of.
type counters struct {
	shardCalls, hedges, sheds, admitted         uint64
	variantHits, variantMisses, coeffHits       uint64
	coeffMisses, evictions, decodes, transforms uint64
}

func (c *psCluster) counters() counters {
	var k counters
	gs := c.gw.Stats()
	k.hedges = gs.Hedges
	k.sheds += gs.Admission.Sheds()
	k.admitted += gs.Admission.Admitted
	for _, s := range gs.Shards {
		k.shardCalls += s.Requests
	}
	for _, sh := range c.shards {
		st := sh.ps.Statz()
		k.sheds += st.Admission.Sheds()
		k.admitted += st.Admission.Admitted
		k.variantHits += st.Variants.Hits
		k.variantMisses += st.Variants.Misses
		k.coeffHits += st.Coeffs.Hits
		k.coeffMisses += st.Coeffs.Misses
		k.evictions += st.Variants.Evictions + st.Coeffs.Evictions
		k.decodes += st.DecodesComputed
		k.transforms += st.TransformsComputed
	}
	return k
}

func (a counters) sub(b counters) counters {
	return counters{
		a.shardCalls - b.shardCalls, a.hedges - b.hedges, a.sheds - b.sheds, a.admitted - b.admitted,
		a.variantHits - b.variantHits, a.variantMisses - b.variantMisses, a.coeffHits - b.coeffHits,
		a.coeffMisses - b.coeffMisses, a.evictions - b.evictions, a.decodes - b.decodes, a.transforms - b.transforms,
	}
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// counterLayers turns a window's counter deltas into per-layer metrics.
func counterLayers(d counters, ops int) map[string]float64 {
	per := func(x uint64) float64 { return float64(x) / float64(max(ops, 1)) }
	return map[string]float64{
		"cluster.shard_calls_per_op":   per(d.shardCalls),
		"cluster.hedges_per_op":        per(d.hedges),
		"psp.decodes_per_op":           per(d.decodes),
		"psp.transforms_per_op":        per(d.transforms),
		"servecache.variant_hit_ratio": ratio(d.variantHits, d.variantHits+d.variantMisses),
		"servecache.coeff_hit_ratio":   ratio(d.coeffHits, d.coeffHits+d.coeffMisses),
		"servecache.evictions_per_op":  per(d.evictions),
		"admission.shed_ratio":         ratio(d.sheds, d.sheds+d.admitted),
	}
}

// traceLayers turns a window's traced requests into per-layer metrics.
func traceLayers(o *outcome, sl servingLayers) {
	var get []float64
	for _, r := range []string{"get", "params", "transformed", "pixels"} {
		get = append(get, sl.shard[r]...)
	}
	o.layers["cluster.gateway_self_ms"] = median(sl.gatewaySelf)
	o.layers["cluster.hop_ms"] = median(sl.hop)
	o.layers["psp.get_ms"] = median(get)
	o.layers["psp.search_ms"] = median(sl.shard["search"])
	o.layers["psp.upload_ms"] = median(sl.shard["put"])
	o.layers["psp.store_ms"] = median(sl.store)
	o.layers["trace.coverage_pct"] = 100 * median(sl.coverage)
	if sl.violations > 0 {
		o.problem("%d of %d traced requests have spans that do not nest", sl.violations, sl.requests)
		o.failed += sl.violations
	}
}
