// Package spine is the HTTP serving contract the PSP daemon (internal/psp)
// and the cluster gateway (internal/cluster) share. Each daemon declares a
// route table of {pattern, name, cost, handler}; the spine wraps every named
// route once, when the mux is built, with weighted admission
// (internal/admission) and a per-route latency histogram. It also owns the
// rest of the contract clients and gateways depend on: the 429 shed shape,
// drain (healthz 503 plus admission drain), the statz admission/latency
// section, the body-limit read, the multipart batch reader (batch.go), and
// the daemon flags and listen → drain → shutdown sequence (daemon.go).
package spine

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"puppies/internal/admission"
	"puppies/internal/stats"
)

// The error-class protocol: a response header that refines how clients
// classify a status code. The spine sets the overloaded class on every
// shed; internal/psp owns the client side and the other classes.
const (
	ErrorClassHeader     = "X-PSP-Error-Class"
	ErrorClassOverloaded = "overloaded"
)

// drainRetryAfter is the Retry-After, in whole seconds, a draining healthz
// sends.
const drainRetryAfter = "1"

// Limits shapes admission control. Zero fields take the defaults.
type Limits struct {
	// MaxInflight caps concurrently served requests in weighted units (see
	// Route.Cost). Requests beyond it queue briefly and are then shed with
	// 429 + Retry-After. Zero means the daemon's per-proc default times
	// GOMAXPROCS; negative disables admission control.
	MaxInflight int
	// AdmitWait bounds how long a request may queue for admission before
	// being shed. Zero means admission.DefaultMaxWait.
	AdmitWait time.Duration
	// AdmitQueue bounds the admission wait queue; arrivals beyond it shed
	// instantly. Zero means admission.DefaultQueueFactor times capacity.
	AdmitQueue int
	// AdmitRetryAfter is the base Retry-After hint on shed responses (the
	// effective hint scales with queue depth). Zero means
	// admission.DefaultRetryAfter.
	AdmitRetryAfter time.Duration
}

// Route is one entry of a daemon's route table.
type Route struct {
	// Pattern is the net/http ServeMux pattern, e.g. "GET /v1/images/{id}".
	Pattern string
	// Name keys the route's latency histogram in statz. An empty name
	// serves the handler bare — no admission, no histogram — which is how
	// healthz, statz and admin routes stay answerable under overload.
	Name string
	// Cost is the route's price in admission units. Zero admits without a
	// unit (the batch envelope: each item pays its own inside ServeBatch).
	Cost    int
	Handler http.HandlerFunc
}

// Spine is one daemon's serving state: its admission controller, its
// per-route latency histograms, and its drain flag.
type Spine struct {
	admit    *admission.Controller // nil admits everything
	draining atomic.Bool

	mu  sync.Mutex // guards lat; taken at Handler and Stats time only
	lat map[string]*stats.Histogram
}

// New builds a spine from lim. perProc is the daemon's default capacity per
// GOMAXPROCS, used when lim.MaxInflight is zero.
func New(lim Limits, perProc int) *Spine {
	sp := &Spine{lat: make(map[string]*stats.Histogram)}
	if lim.MaxInflight < 0 {
		return sp
	}
	capacity := lim.MaxInflight
	if capacity == 0 {
		capacity = perProc * runtime.GOMAXPROCS(0)
	}
	sp.admit = admission.New(admission.Config{
		Capacity:   capacity,
		MaxWait:    lim.AdmitWait,
		MaxQueue:   lim.AdmitQueue,
		RetryAfter: lim.AdmitRetryAfter,
	})
	return sp
}

// Handler builds the daemon's mux from its route table. Each named route
// is wrapped here, once, in a closure that holds its cost and histogram, so
// serving a request costs no lookup and no allocation beyond the handler's
// own.
func (sp *Spine) Handler(routes []Route) http.Handler {
	mux := http.NewServeMux()
	for _, rt := range routes {
		mux.HandleFunc(rt.Pattern, sp.wrap(rt))
	}
	return mux
}

// wrap fronts a named route with admission control and latency recording.
// Shed requests answer 429 (see WriteOverloaded); admitted requests release
// their units when the handler returns and record wall time into the
// route's histogram.
func (sp *Spine) wrap(rt Route) http.HandlerFunc {
	if rt.Name == "" {
		return rt.Handler
	}
	h, cost, hist, ctl := rt.Handler, rt.Cost, sp.histogram(rt.Name), sp.admit
	return func(w http.ResponseWriter, r *http.Request) {
		if cost > 0 {
			release, out := ctl.Acquire(r.Context(), cost)
			if out != admission.Admitted {
				WriteOverloaded(w, ctl.RetryAfterHint(), out)
				return
			}
			defer release()
		}
		start := time.Now()
		h(w, r)
		hist.Record(time.Since(start))
	}
}

// histogram returns name's histogram, creating it on first use; routes
// sharing a name (GET and POST search) share one.
func (sp *Spine) histogram(name string) *stats.Histogram {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	h := sp.lat[name]
	if h == nil {
		h = &stats.Histogram{}
		sp.lat[name] = h
	}
	return h
}

// WriteOverloaded is the one shed response shape: 429, a fractional-seconds
// Retry-After the client honors exactly, and the overloaded error class so
// psp.Client types it as ErrOverloaded.
func WriteOverloaded(w http.ResponseWriter, hint time.Duration, out admission.Outcome) {
	if hint > 0 {
		w.Header().Set("Retry-After", strconv.FormatFloat(hint.Seconds(), 'f', 3, 64))
	}
	w.Header().Set(ErrorClassHeader, ErrorClassOverloaded)
	http.Error(w, fmt.Sprintf("overloaded (%s)", out), http.StatusTooManyRequests)
}

// SetDraining flips the daemon into (or out of) draining mode: healthz
// answers 503 with a Retry-After hint (see WriteDraining) while every other
// route keeps serving, so routing gateways stop sending new traffic before
// in-flight requests finish. Admission tightens too: requests that would
// have to queue are shed immediately, so shutdown never grows a backlog it
// is about to abandon.
func (sp *Spine) SetDraining(v bool) {
	sp.draining.Store(v)
	sp.admit.SetDraining(v)
}

// Draining reports whether the daemon is draining.
func (sp *Spine) Draining() bool { return sp.draining.Load() }

// WriteDraining answers a health check while draining: 503, a one-second
// Retry-After, and the daemon's JSON health body.
func WriteDraining(w http.ResponseWriter, body any) {
	w.Header().Set("Retry-After", drainRetryAfter)
	WriteJSON(w, http.StatusServiceUnavailable, body)
}

// Stats is the spine's section of a /v1/statz body: admission counters and
// the latency quantiles of every route that has served a request. Daemons
// embed it, so its keys sit at the top level beside their own.
type Stats struct {
	Admission admission.Stats                    `json:"admission"`
	LatencyNs map[string]stats.HistogramSnapshot `json:"latencyNs"`
}

// Stats snapshots the spine's statz section.
func (sp *Spine) Stats() Stats {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	lat := make(map[string]stats.HistogramSnapshot, len(sp.lat))
	for name, h := range sp.lat {
		if h.Count() > 0 {
			lat[name] = h.Snapshot()
		}
	}
	return Stats{Admission: sp.admit.Stats(), LatencyNs: lat}
}

// WriteJSON answers code with v as a JSON body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// ReadBody reads a request body of at most limit bytes. On failure it has
// already answered — 400 for a broken read, 413 past the limit — and
// reports false.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	// Read one byte past the limit so oversized bodies are detected rather
	// than silently truncated.
	body, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
	if err != nil {
		http.Error(w, fmt.Sprintf("read body: %v", err), http.StatusBadRequest)
		return nil, false
	}
	if int64(len(body)) > limit {
		http.Error(w, fmt.Sprintf("body exceeds %d bytes", limit), http.StatusRequestEntityTooLarge)
		return nil, false
	}
	return body, true
}
