// Package faults is a deterministic, seedable fault-injection harness for
// the PSP pipeline. It perturbs HTTP traffic as server middleware
// (Injector.Middleware) and cuts client links to chosen hosts
// (Partition.Transport), so robustness tests can exercise retry, backoff,
// and graceful-degradation paths reproducibly.
//
// Faults are scheduled by rules. A rule matches a subset of requests and
// carries a script: a fixed sequence of faults consumed one per matching
// request, in order. After the script is exhausted the rule can keep
// injecting probabilistically at Rate, drawn from the injector's seeded
// RNG. A fixed seed plus a script therefore yields the exact same fault
// sequence on every run, which is what lets tests like "upload succeeds
// after two 503s" assert precise retry counts.
package faults

import (
	"net/http"
	"strings"
	"sync"
	"time"

	mrand "math/rand"
)

// Kind enumerates the failure modes the injector can produce.
type Kind int

const (
	// None passes the request through untouched.
	None Kind = iota
	// Status503 answers 503 Service Unavailable without reaching the
	// handler. Retry-After is attached when Fault.RetryAfter is set.
	Status503
	// Drop severs the connection before the request reaches the handler:
	// the client sees a broken connection and the server does no work.
	Drop
	// DropResponse lets the request fully execute, then severs the
	// connection before the response reaches the client. This is the
	// fault that makes upload idempotency observable: the server stored
	// the image, the client must retry without duplicating it.
	DropResponse
	// Latency delays the request by Fault.Delay, then passes it through.
	Latency
	// Truncate passes the request through and silently cuts the response
	// body in half (headers report the short length, so the read
	// "succeeds" and the corruption is only visible to a decoder).
	Truncate
	// BitFlip passes the request through and flips one RNG-chosen bit of
	// the response body — a corrupted-JPEG simulation.
	BitFlip
)

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Status503:
		return "503"
	case Drop:
		return "drop"
	case DropResponse:
		return "drop-response"
	case Latency:
		return "latency"
	case Truncate:
		return "truncate"
	case BitFlip:
		return "bitflip"
	}
	return "unknown"
}

// Fault is one scheduled failure.
type Fault struct {
	Kind Kind
	// Delay applies to Latency faults.
	Delay time.Duration
	// RetryAfter, when set on a Status503, is sent as a Retry-After
	// header (fractional seconds).
	RetryAfter time.Duration
}

// Rule matches requests and schedules faults for them.
type Rule struct {
	// Match selects requests; nil matches everything.
	Match func(*http.Request) bool
	// Script is consumed one fault per matching request, in order.
	// Kind None entries deliberately let a request through.
	Script []Fault
	// Rate in [0,1] injects Fault on matching requests once Script is
	// exhausted, using the injector's seeded RNG.
	Rate float64
	// Fault is the fault injected at Rate.
	Fault Fault

	seen int
}

// PathPrefix returns a matcher for requests whose URL path starts with
// prefix, e.g. PathPrefix("/v1/images").
func PathPrefix(prefix string) func(*http.Request) bool {
	return func(r *http.Request) bool { return strings.HasPrefix(r.URL.Path, prefix) }
}

// PathContains returns a matcher for requests whose URL path contains sub,
// e.g. PathContains("/transformed").
func PathContains(sub string) func(*http.Request) bool {
	return func(r *http.Request) bool { return strings.Contains(r.URL.Path, sub) }
}

// MethodIs returns a matcher for a specific HTTP method.
func MethodIs(method string) func(*http.Request) bool {
	return func(r *http.Request) bool { return r.Method == method }
}

// Injector owns the fault schedule. It is safe for concurrent use; all RNG
// draws and script advances are serialized, so a single-threaded request
// sequence is fully deterministic under a fixed seed.
type Injector struct {
	mu    sync.Mutex
	rng   *mrand.Rand
	rules []*Rule
	stats map[Kind]int
}

// New returns an injector whose probabilistic draws and bit-flip positions
// derive from seed.
func New(seed int64) *Injector {
	return &Injector{
		rng:   mrand.New(mrand.NewSource(seed)),
		stats: make(map[Kind]int),
	}
}

// Rule appends a rule to the schedule. Rules are evaluated in order; the
// first matching rule that yields a non-None fault wins.
func (in *Injector) Rule(r Rule) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = append(in.rules, &r)
	return in
}

// Script is shorthand for a pure-script rule: the first len(faults)
// requests matching match receive the listed faults, later ones pass.
func (in *Injector) Script(match func(*http.Request) bool, faults ...Fault) *Injector {
	return in.Rule(Rule{Match: match, Script: faults})
}

// next decides the fault for req and records it in the stats.
func (in *Injector) next(req *http.Request) Fault {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, r := range in.rules {
		if r.Match != nil && !r.Match(req) {
			continue
		}
		i := r.seen
		r.seen++
		if i < len(r.Script) {
			f := r.Script[i]
			if f.Kind != None {
				in.stats[f.Kind]++
				return f
			}
			continue
		}
		if r.Rate > 0 && in.rng.Float64() < r.Rate {
			in.stats[r.Fault.Kind]++
			return r.Fault
		}
	}
	return Fault{Kind: None}
}

// flipBit returns a copy of body with one RNG-chosen bit inverted.
func (in *Injector) flipBit(body []byte) []byte {
	if len(body) == 0 {
		return body
	}
	out := make([]byte, len(body))
	copy(out, body)
	in.mu.Lock()
	pos := in.rng.Intn(len(out))
	bit := in.rng.Intn(8)
	in.mu.Unlock()
	out[pos] ^= 1 << bit
	return out
}

// Count reports how many faults of the given kind were injected.
func (in *Injector) Count(k Kind) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats[k]
}

// Stats returns a copy of the per-kind injection counters.
func (in *Injector) Stats() map[Kind]int {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[Kind]int, len(in.stats))
	for k, v := range in.stats {
		out[k] = v
	}
	return out
}
