package faults

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"syscall"
	"time"

	mrand "math/rand"
)

// LinkMode describes how a network link between the caller and one host is
// failing. A Partition models per-host link state, which is what cluster
// tests need: a gateway talks to N shards over N independent links, and a
// real-world partition takes out some links while leaving others intact.
type LinkMode int

const (
	// LinkHealthy passes traffic through untouched.
	LinkHealthy LinkMode = iota
	// LinkBlackhole is a symmetric partition as routers actually produce
	// it: the request vanishes and the caller hangs until its context
	// expires. Callers without deadlines hang forever, exactly like real
	// blackholed TCP — pair this mode with per-attempt timeouts.
	LinkBlackhole
	// LinkUnreachable is a symmetric partition with fast failure: the
	// request is never delivered and the caller sees an immediate
	// connection reset. The server does no work.
	LinkUnreachable
	// LinkDropReplies is the asymmetric partition: the request is
	// delivered and the server fully executes it (side effects are real),
	// but the response is dropped and the caller sees a connection reset.
	// This is the mode that makes replica divergence observable.
	LinkDropReplies
)

func (m LinkMode) String() string {
	switch m {
	case LinkHealthy:
		return "healthy"
	case LinkBlackhole:
		return "blackhole"
	case LinkUnreachable:
		return "unreachable"
	case LinkDropReplies:
		return "drop-replies"
	}
	return "unknown"
}

// link is the state of one host's link.
type link struct {
	mode LinkMode
	// rate in (0,1] drops each request with this probability from the
	// partition's seeded RNG; 1 (the default) drops every request.
	rate float64
	// healAt, when non-zero, removes the link fault at that instant
	// (evaluated lazily against the partition's clock).
	healAt time.Time
}

// Partition is a deterministic per-host link-fault injector for HTTP
// clients. Wrap a transport with Transport and then Isolate hosts; requests
// to isolated hosts fail according to the link's mode while other hosts pass
// through. All probabilistic draws come from a single seeded RNG, so a fixed
// seed plus a fixed request sequence yields the same drop pattern every run.
//
// The zero clock is time.Now; SetClock stubs it so heal-at-time behavior is
// testable without sleeping.
type Partition struct {
	mu    sync.Mutex
	rng   *mrand.Rand
	now   func() time.Time
	links map[string]*link
	drops map[string]int
}

// NewPartition returns a partition whose lossy-link draws derive from seed.
func NewPartition(seed int64) *Partition {
	return &Partition{
		rng:   mrand.New(mrand.NewSource(seed)),
		now:   time.Now,
		links: make(map[string]*link),
		drops: make(map[string]int),
	}
}

// SetClock stubs the clock used for heal-at-time evaluation.
func (p *Partition) SetClock(now func() time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.now = now
}

// Isolate puts host's link into mode until healed explicitly.
func (p *Partition) Isolate(host string, mode LinkMode) {
	p.set(host, &link{mode: mode, rate: 1})
}

// IsolateUntil puts host's link into mode and heals it automatically at
// healAt. Healing is lazy: the first request at or after healAt passes
// through and removes the fault.
func (p *Partition) IsolateUntil(host string, mode LinkMode, healAt time.Time) {
	p.set(host, &link{mode: mode, rate: 1, healAt: healAt})
}

// IsolateLossy makes host's link flaky: each request is dropped (per mode)
// with probability rate, drawn from the seeded RNG.
func (p *Partition) IsolateLossy(host string, mode LinkMode, rate float64) {
	p.set(host, &link{mode: mode, rate: rate})
}

func (p *Partition) set(host string, l *link) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if l.mode == LinkHealthy {
		delete(p.links, host)
		return
	}
	p.links[host] = l
}

// Heal restores host's link.
func (p *Partition) Heal(host string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.links, host)
}

// HealAll restores every link.
func (p *Partition) HealAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.links = make(map[string]*link)
}

// Drops reports how many requests to host were dropped (any mode).
func (p *Partition) Drops(host string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.drops[host]
}

// decide resolves the link mode for one request to host, applying lazy
// heal-at-time and lossy-rate draws, and counts the drop if any.
func (p *Partition) decide(host string) LinkMode {
	p.mu.Lock()
	defer p.mu.Unlock()
	l, ok := p.links[host]
	if !ok {
		return LinkHealthy
	}
	if !l.healAt.IsZero() && !p.now().Before(l.healAt) {
		delete(p.links, host)
		return LinkHealthy
	}
	if l.rate < 1 && p.rng.Float64() >= l.rate {
		return LinkHealthy
	}
	p.drops[host]++
	return l.mode
}

// Transport wraps an http.RoundTripper with the partition. inner may be
// nil, in which case http.DefaultTransport is used. Link state is keyed by
// request host (URL.Host, including port).
func (p *Partition) Transport(inner http.RoundTripper) http.RoundTripper {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &partitionTransport{p: p, inner: inner}
}

type partitionTransport struct {
	p     *Partition
	inner http.RoundTripper
}

func (t *partitionTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	switch t.p.decide(req.URL.Host) {
	case LinkBlackhole:
		drainRequest(req)
		<-req.Context().Done()
		return nil, fmt.Errorf("faults: blackholed request to %s: %w", req.URL.Host, req.Context().Err())

	case LinkUnreachable:
		drainRequest(req)
		return nil, connReset()

	case LinkDropReplies:
		resp, err := t.inner.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, connReset()
	}
	return t.inner.RoundTrip(req)
}

// connReset is the transport error for a severed link; clients see it
// exactly as they would a mid-flight TCP reset.
func connReset() error {
	return &net.OpError{Op: "read", Net: "tcp", Err: syscall.ECONNRESET}
}

// drainRequest consumes and closes the outgoing body, which RoundTrip
// implementations must do even when they never contact the origin.
func drainRequest(req *http.Request) {
	if req.Body != nil {
		_, _ = io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
}
