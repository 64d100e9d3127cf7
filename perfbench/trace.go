package main

import (
	"context"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"puppies/internal/psp"
)

// The serving trace records one span per layer boundary, from wrappers the
// benchmark installs around the program's public seams only:
//
//	client   the benchmark's HTTP call, request written to body read
//	gateway  cluster.Gateway's handler
//	hop      the gateway's Config.Transport round trip, body included
//	shard    a psp.Server's Handler()
//	store    a psp.Store call made by that handler
//
// A traced request carries traceHeader ("<trace id>:<parent span>") on the
// wire. Inside the gateway the span travels in the request context, so hops
// made for a read nest under the gateway span. Upload replication runs on a
// detached context; those hops are linked to their upload through the
// forwarded Idempotency-Key instead.
const traceHeader = "X-Bench-Trace"

const (
	spanClient = iota
	spanGateway
	spanHop
	spanShard
	spanStore
)

type span struct {
	kind       int
	route      string
	parent     int
	start, end time.Duration // since tracer.epoch; end < 0 while open
	// abandoned marks a hop that ended in an error, such as a hedge loser
	// the gateway canceled; its shard may keep working past it.
	abandoned bool
}

type reqTrace struct {
	id  string
	mu  sync.Mutex
	gw  int // the gateway span, parent of detached replication hops
	sps []span
}

func (t *reqTrace) open(kind int, route string, parent int, now time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sps = append(t.sps, span{kind: kind, route: route, parent: parent, start: now, end: -1})
	if kind == spanGateway {
		t.gw = len(t.sps) - 1
	}
	return len(t.sps) - 1
}

func (t *reqTrace) close(i int, now time.Duration) {
	t.mu.Lock()
	t.sps[i].end = now
	t.mu.Unlock()
}

func (t *reqTrace) abandon(i int, now time.Duration) {
	t.mu.Lock()
	t.sps[i].end, t.sps[i].abandoned = now, true
	t.mu.Unlock()
}

func (t *reqTrace) ref(i int) string { return t.id + ":" + strconv.Itoa(i) }

type spanRef struct {
	t *reqTrace
	i int
}

type ctxKey struct{}

// tracer owns every trace of a run; spans stay in memory until analysis.
type tracer struct {
	epoch time.Time
	seq   atomic.Uint64
	mu    sync.Mutex
	byID  map[string]*reqTrace
	byKey map[string]*reqTrace
	all   []*reqTrace
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), byID: map[string]*reqTrace{}, byKey: map[string]*reqTrace{}}
}

func (tr *tracer) now() time.Duration { return time.Since(tr.epoch) }

// start opens a client root span for a new traced request; key is the
// upload's Idempotency-Key, or "".
func (tr *tracer) start(route, key string) (*reqTrace, int) {
	t := &reqTrace{id: "t" + strconv.FormatUint(tr.seq.Add(1), 36), gw: -1}
	tr.mu.Lock()
	tr.byID[t.id] = t
	if key != "" {
		tr.byKey[key] = t
	}
	tr.all = append(tr.all, t)
	tr.mu.Unlock()
	return t, t.open(spanClient, route, -1, tr.now())
}

// quiesce waits, up to timeout, until no span is open: hedge losers and
// replication stragglers may still be running when the window ends.
func (tr *tracer) quiesce(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	open := func() bool {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		for _, t := range tr.all {
			t.mu.Lock()
			for _, s := range t.sps {
				if s.end < 0 {
					t.mu.Unlock()
					return true
				}
			}
			t.mu.Unlock()
		}
		return false
	}
	for open() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
}

// fromHeader resolves a traceHeader value to its trace and parent span.
func (tr *tracer) fromHeader(h http.Header) (spanRef, bool) {
	v := h.Get(traceHeader)
	id, idx, found := strings.Cut(v, ":")
	if !found {
		return spanRef{}, false
	}
	i, err := strconv.Atoi(idx)
	if err != nil {
		return spanRef{}, false
	}
	tr.mu.Lock()
	t := tr.byID[id]
	tr.mu.Unlock()
	return spanRef{t, i}, t != nil
}

// gatewayHandler wraps the gateway's handler: one span per client request,
// handed to the gateway's outgoing calls through the request context.
func (tr *tracer) gatewayHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ref, ok := tr.fromHeader(r.Header)
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		i := ref.t.open(spanGateway, "", ref.i, tr.now())
		dw := &doneWriter{ResponseWriter: w, tr: tr}
		h.ServeHTTP(dw, r.WithContext(context.WithValue(r.Context(), ctxKey{}, spanRef{ref.t, i})))
		ref.t.close(i, dw.end())
	})
}

// doneWriter records when a handler last started writing. A server span
// ends there, not at handler return: the peer may hold the whole response
// while the handler still releases admission units or records latency, or
// before a preempted writer gets to read the clock. No peer can finish
// reading before the last write began, so spans nest by causality.
type doneWriter struct {
	http.ResponseWriter
	tr   *tracer
	last time.Duration
}

func (w *doneWriter) WriteHeader(code int) {
	w.last = w.tr.now()
	w.ResponseWriter.WriteHeader(code)
}

func (w *doneWriter) Write(p []byte) (int, error) {
	w.last = w.tr.now()
	return w.ResponseWriter.Write(p)
}

func (w *doneWriter) end() time.Duration {
	if w.last == 0 {
		return w.tr.now()
	}
	return w.last
}

// hopTransport wraps the gateway's Config.Transport: one span per
// gateway→shard exchange, ending when the gateway has read the body.
type hopTransport struct {
	tr   *tracer
	base http.RoundTripper
}

func (h *hopTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, ok := req.Context().Value(ctxKey{}).(spanRef)
	if !ok {
		if key := req.Header.Get("Idempotency-Key"); key != "" {
			h.tr.mu.Lock()
			t := h.tr.byKey[key]
			h.tr.mu.Unlock()
			if t != nil {
				t.mu.Lock()
				ref, ok = spanRef{t, t.gw}, t.gw >= 0
				t.mu.Unlock()
			}
		}
	}
	if !ok {
		return h.base.RoundTrip(req)
	}
	i := ref.t.open(spanHop, "", ref.i, h.tr.now())
	req = req.Clone(req.Context())
	req.Header.Set(traceHeader, ref.t.ref(i))
	resp, err := h.base.RoundTrip(req)
	if err != nil {
		ref.t.abandon(i, h.tr.now())
		return nil, err
	}
	resp.Body = &hopBody{ReadCloser: resp.Body, end: func(ok bool) {
		if ok {
			ref.t.close(i, h.tr.now())
		} else {
			ref.t.abandon(i, h.tr.now())
		}
	}}
	return resp, nil
}

// hopBody ends its hop at EOF, or abandons it on a read error or a close
// before EOF.
type hopBody struct {
	io.ReadCloser
	once sync.Once
	end  func(ok bool)
}

func (b *hopBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(func() { b.end(err == io.EOF) })
	}
	return n, err
}

func (b *hopBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.end(false) })
	return err
}

// activeSet maps the image IDs and idempotency keys of one shard's
// in-flight requests to their shard spans (a nil trace for untraced ones),
// so store calls, which carry no context, can be attributed to the request
// that made them. A call is attributed only when a single request for that
// name is in flight; with more it is ambiguous and left out.
type activeSet struct {
	mu sync.Mutex
	m  map[string][]spanRef
}

func (a *activeSet) enter(names []string, ref spanRef) {
	a.mu.Lock()
	for _, n := range names {
		a.m[n] = append(a.m[n], ref)
	}
	a.mu.Unlock()
}

func (a *activeSet) leave(names []string, ref spanRef) {
	a.mu.Lock()
	for _, n := range names {
		refs := a.m[n]
		for j, r := range refs {
			if r == ref {
				refs = append(refs[:j], refs[j+1:]...)
				break
			}
		}
		if len(refs) == 0 {
			delete(a.m, n)
		} else {
			a.m[n] = refs
		}
	}
	a.mu.Unlock()
}

func (a *activeSet) lookup(name string) (spanRef, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	refs := a.m[name]
	if len(refs) != 1 || refs[0].t == nil {
		return spanRef{}, false
	}
	return refs[0], true
}

// shardRoute names a shard request the way psp.Server's route table does.
func shardRoute(r *http.Request) (route, id string) {
	p := r.URL.Path
	if strings.HasPrefix(p, "/v1/search") {
		return "search", r.URL.Query().Get("id")
	}
	rest, ok := strings.CutPrefix(p, "/v1/images/")
	if !ok {
		return "other", ""
	}
	id, sub, _ := strings.Cut(rest, "/")
	switch {
	case r.Method == http.MethodPut:
		return "put", id
	case sub == "":
		return "get", id
	default:
		return sub, id // params, transformed, pixels
	}
}

// shardHandler wraps one psp.Server's Handler().
func (tr *tracer) shardHandler(h http.Handler, act *activeSet) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route, id := shardRoute(r)
		names := []string{"id:" + id}
		if key := r.Header.Get("Idempotency-Key"); key != "" {
			names = append(names, "key:"+key)
		}
		ref, ok := tr.fromHeader(r.Header)
		if !ok {
			act.enter(names, spanRef{})
			h.ServeHTTP(w, r)
			act.leave(names, spanRef{})
			return
		}
		i := ref.t.open(spanShard, route, ref.i, tr.now())
		self := spanRef{ref.t, i}
		act.enter(names, self)
		dw := &doneWriter{ResponseWriter: w, tr: tr}
		h.ServeHTTP(dw, r)
		act.leave(names, self)
		ref.t.close(i, dw.end())
	})
}

// tracedStore wraps a psp.Store; calls made on behalf of a traced request
// become store spans under that request's shard span.
type tracedStore struct {
	psp.Store
	tr  *tracer
	act *activeSet
}

func (s *tracedStore) timed(name, route string) func() {
	ref, ok := s.act.lookup(name)
	if !ok {
		return func() {}
	}
	i := ref.t.open(spanStore, route, ref.i, s.tr.now())
	return func() { ref.t.close(i, s.tr.now()) }
}

func (s *tracedStore) Get(id string) ([]byte, []byte, bool, error) {
	defer s.timed("id:"+id, "get")()
	return s.Store.Get(id)
}

func (s *tracedStore) Put(id string, jpeg, params []byte, key string) (string, error) {
	defer s.timed("id:"+id, "put")()
	return s.Store.Put(id, jpeg, params, key)
}

func (s *tracedStore) IDForKey(key string) (string, bool) {
	defer s.timed("key:"+key, "key")()
	return s.Store.IDForKey(key)
}

// servingLayers is the per-layer breakdown of a set of traced requests.
type servingLayers struct {
	gatewaySelf []float64            // ms per request: gateway span minus the hops inside it
	hop         []float64            // ms per hop: hop span minus its shard span
	shard       map[string][]float64 // ms per shard span by route, minus its store spans
	store       []float64            // ms per store call
	coverage    []float64            // per request: share of the client span the gateway span covers
	violations  int                  // requests whose spans do not nest as documented
	requests    int
}

func within(in, out span) bool { return in.start >= out.start && in.end <= out.end && in.end >= 0 }

func dur(s span) time.Duration { return s.end - s.start }

// analyze computes the serving breakdown over the given traces. Every
// client span must contain its gateway span; every shard span its store
// spans; every completed hop the shard span it caused. At least one hop
// per request must nest in the gateway span: detached replication hops are
// linked by key and may outlive it by design. Abandoned hops (hedge losers
// the gateway canceled) are left out of the breakdown.
func analyze(traces []*reqTrace) servingLayers {
	out := servingLayers{shard: map[string][]float64{}}
	for _, t := range traces {
		t.mu.Lock()
		sps := append([]span(nil), t.sps...)
		t.mu.Unlock()
		out.requests++
		if !out.add(sps) {
			out.violations++
		}
	}
	return out
}

// add folds one request's spans into the breakdown and reports whether
// they nest as documented.
func (out *servingLayers) add(sps []span) bool {
	children := make([][]int, len(sps))
	for i, s := range sps {
		if s.end < 0 {
			return false
		}
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	root, gwi := sps[0], -1
	for _, c := range children[0] {
		if sps[c].kind == spanGateway {
			gwi = c
		}
	}
	if gwi < 0 || !within(sps[gwi], root) {
		return false
	}
	gw := sps[gwi]
	ok, nested := true, 0
	var hopIv [][2]time.Duration
	for _, hi := range children[gwi] {
		hop := sps[hi]
		if hop.abandoned {
			continue
		}
		if within(hop, gw) {
			nested++
		}
		if s0, e0 := max(hop.start, gw.start), min(hop.end, gw.end); e0 > s0 {
			hopIv = append(hopIv, [2]time.Duration{s0, e0})
		}
		var shardDur time.Duration
		for _, si := range children[hi] {
			sh := sps[si]
			if !within(sh, hop) {
				ok = false
				continue
			}
			shardDur += dur(sh)
			var storeDur time.Duration
			for _, st := range children[si] {
				if !within(sps[st], sh) {
					ok = false
					continue
				}
				storeDur += dur(sps[st])
				out.store = append(out.store, ms(dur(sps[st])))
			}
			out.shard[sh.route] = append(out.shard[sh.route], ms(dur(sh)-storeDur))
		}
		out.hop = append(out.hop, ms(dur(hop)-shardDur))
	}
	out.coverage = append(out.coverage, float64(dur(gw))/float64(dur(root)))
	out.gatewaySelf = append(out.gatewaySelf, ms(dur(gw)-union(hopIv)))
	return ok && nested > 0
}

// union is the total length covered by a set of intervals.
func union(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	for i := 0; i < len(iv); {
		start, end := iv[i][0], iv[i][1]
		for i++; i < len(iv) && iv[i][0] <= end; i++ {
			end = max(end, iv[i][1])
		}
		total += end - start
	}
	return total
}
