package loadgen

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"puppies/internal/core"
	"puppies/internal/imgplane"
	"puppies/internal/jpegc"
	"puppies/internal/psp"
	"puppies/internal/stats"
	"puppies/internal/transform"
)

// Route names used in reports; they mirror the op mix keys.
const (
	RouteHotGet  = "hotget"
	RouteColdGet = "coldget"
	RouteUpload  = "upload"
	RouteBatch   = "batch"
	RouteRecover = "recover"
	RouteSearch  = "search"
	RouteThumb   = "thumbnail"
)

// Mix is the op mix in integer shares (not required to sum to 100).
type Mix struct {
	HotGet  int `json:"hotget"`    // Zipf-ranked transformed GET, small spec set (cache-friendly)
	ColdGet int `json:"coldget"`   // uniform-ranked GET with a never-repeating spec (cache-hostile tail)
	Upload  int `json:"upload"`    // single image upload
	Batch   int `json:"batch"`     // 3-item streaming batch upload
	Recover int `json:"recover"`   // raw image + params fetch (the PUPPIES recovery path)
	Search  int `json:"search"`    // by-ID k-NN signature search, answer integrity-checked
	Thumb   int `json:"thumbnail"` // Zipf-ranked 1/8-scale GET (the grid-view scaled-decode path)
}

// DefaultMix is a read-heavy photo-sharing shape: most traffic is hot
// transformed views, with a grid-view thumbnail share, a cache-hostile
// tail, and a write trickle.
func DefaultMix() Mix {
	return Mix{HotGet: 40, ColdGet: 15, Upload: 10, Batch: 5, Recover: 15, Search: 5, Thumb: 10}
}

// Total sums the shares.
func (m Mix) Total() int {
	return m.HotGet + m.ColdGet + m.Upload + m.Batch + m.Recover + m.Search + m.Thumb
}

// ParseMix reads "hotget=55,coldget=15,upload=10,batch=5,recover=15".
// Omitted routes get share 0; at least one share must be positive.
func ParseMix(s string) (Mix, error) {
	var m Mix
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return Mix{}, fmt.Errorf("loadgen: bad mix term %q (want route=share)", part)
		}
		n, err := strconv.Atoi(strings.TrimSpace(v))
		if err != nil || n < 0 {
			return Mix{}, fmt.Errorf("loadgen: bad mix share %q", part)
		}
		switch strings.TrimSpace(k) {
		case RouteHotGet:
			m.HotGet = n
		case RouteColdGet:
			m.ColdGet = n
		case RouteUpload:
			m.Upload = n
		case RouteBatch:
			m.Batch = n
		case RouteRecover:
			m.Recover = n
		case RouteSearch:
			m.Search = n
		case RouteThumb:
			m.Thumb = n
		default:
			return Mix{}, fmt.Errorf("loadgen: unknown route %q in mix", k)
		}
	}
	if m.Total() <= 0 {
		return Mix{}, errors.New("loadgen: mix has no positive shares")
	}
	return m, nil
}

// pick draws a route from the mix with the worker's RNG.
func (m Mix) pick(rng *rand.Rand) string {
	n := rng.Intn(m.Total())
	for _, e := range []struct {
		route string
		share int
	}{
		{RouteHotGet, m.HotGet},
		{RouteColdGet, m.ColdGet},
		{RouteUpload, m.Upload},
		{RouteBatch, m.Batch},
		{RouteRecover, m.Recover},
		{RouteSearch, m.Search},
		{RouteThumb, m.Thumb},
	} {
		if n < e.share {
			return e.route
		}
		n -= e.share
	}
	return RouteHotGet
}

// Config shapes one load run.
type Config struct {
	// BaseURL is the pspd or gateway root.
	BaseURL string
	// HTTPClient overrides the transport (nil = pooled default).
	HTTPClient *http.Client
	// Seed makes the whole run replayable.
	Seed int64
	// Duration bounds the run (default 5s).
	Duration time.Duration
	// Workers is the closed-loop concurrency (default 8). Ignored when
	// QPS is set.
	Workers int
	// QPS switches to open-loop: seeded Poisson arrivals at this rate,
	// each op on its own goroutine regardless of how slow the server is —
	// the mode that actually surfaces queue collapse.
	QPS float64
	// Mix is the op mix (zero value = DefaultMix).
	Mix Mix
	// Corpus is how many distinct images to upload before the run
	// (default 24).
	Corpus int
	// ZipfS is the Zipf skew for hot GETs (default 1.2).
	ZipfS float64
	// Logf narrates progress (nil = silent).
	Logf func(string, ...any)
}

// routeStats aggregates one route's outcomes.
type routeStats struct {
	ops  atomic.Uint64
	hist *stats.Histogram

	mu   sync.Mutex
	errs map[string]uint64
}

// Runner drives one load run. Build with New, seed the corpus with Setup,
// then Run.
type Runner struct {
	cfg    Config
	client *psp.Client
	routes map[string]*routeStats

	ids      []string // corpus image IDs, rank 0 = hottest
	rawJPEGs [][]byte
	rawPD    []byte

	coldSeq    atomic.Uint64
	itemSheds  atomic.Uint64
	unexpected atomic.Uint64

	mu      sync.Mutex
	samples []string
}

// Error classes for the taxonomy. "Expected" classes are outcomes a
// correct client is allowed to see under overload/chaos-with-retries:
// clean success, a terminal 429 shed (the server chose to refuse), and
// cancellation at run teardown. Everything else — 5xx after retries,
// corrupt payloads, vanished images — is unexpected and fails the gate.
const (
	ClassOK          = "ok"
	ClassShed        = "shed"
	ClassCanceled    = "canceled"
	ClassUnavailable = "unavailable"
	ClassNotFound    = "notfound"
	ClassCorrupt     = "corrupt"
	ClassOther       = "other"
)

// Classify maps an op error to its taxonomy class and whether it is
// expected under chaos-with-retries.
func Classify(err error) (class string, expected bool) {
	switch {
	case err == nil:
		return ClassOK, true
	case errors.Is(err, psp.ErrOverloaded):
		return ClassShed, true
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return ClassCanceled, true
	case errors.Is(err, psp.ErrNotFound):
		return ClassNotFound, false
	case errors.Is(err, psp.ErrCorrupt):
		return ClassCorrupt, false
	case errors.Is(err, psp.ErrRetryable):
		return ClassUnavailable, false
	default:
		return ClassOther, false
	}
}

// New validates the config and builds a runner (no traffic yet).
func New(cfg Config) (*Runner, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("loadgen: BaseURL required")
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Second
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.Corpus <= 0 {
		cfg.Corpus = 24
	}
	if cfg.Mix.Total() <= 0 {
		cfg.Mix = DefaultMix()
	}
	if cfg.ZipfS <= 1 {
		cfg.ZipfS = 1.2
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	}
	r := &Runner{
		cfg: cfg,
		client: &psp.Client{
			BaseURL:        cfg.BaseURL,
			HTTPClient:     hc,
			RequestTimeout: 10 * time.Second,
		},
		routes: make(map[string]*routeStats),
	}
	for _, route := range []string{RouteHotGet, RouteColdGet, RouteUpload, RouteBatch, RouteRecover, RouteSearch, RouteThumb} {
		r.routes[route] = &routeStats{hist: &stats.Histogram{}, errs: make(map[string]uint64)}
	}
	return r, nil
}

// Client exposes the runner's PSP client (for stats after a run).
func (r *Runner) Client() *psp.Client { return r.client }

// synthImage renders a seeded sinusoidal test card. Phases AND spatial
// frequencies are randomized per image: phase alone shifts the pattern
// without changing its coarse luminance layout, which made every corpus
// image collapse to the same search signature; distinct frequencies give
// distinct layouts and therefore distinct signatures as well as distinct
// content IDs.
func synthImage(rng *rand.Rand, w, h int) (*jpegc.Image, error) {
	pl, err := imgplane.New(w, h, 3)
	if err != nil {
		return nil, err
	}
	p0, p1, p2 := rng.Float64()*6, rng.Float64()*6, rng.Float64()*6
	fx := 3 + rng.Float64()*9
	fy := 3 + rng.Float64()*9
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			pl.Planes[0].Pix[i] = float32(100 + 80*math.Sin(p0+float64(x)/fx)*math.Cos(float64(y)/fy))
			pl.Planes[1].Pix[i] = float32(128 + 25*math.Sin(p1+float64(x+y)/9))
			pl.Planes[2].Pix[i] = float32(128 + 25*math.Cos(p2+float64(x-y)/7))
		}
	}
	return jpegc.FromPlanar(pl, jpegc.Options{Quality: 80})
}

// Setup synthesizes and uploads the corpus. Every image carries valid
// (minimal) PublicData so the recover op's params fetch round-trips.
func (r *Runner) Setup(ctx context.Context) error {
	const w, h = 64, 48
	rng := rand.New(rand.NewSource(r.cfg.Seed))
	raw, err := (&core.PublicData{W: w, H: h, Channels: 3}).Encode()
	if err != nil {
		return err
	}
	r.rawPD = raw
	for i := 0; i < r.cfg.Corpus; i++ {
		img, err := synthImage(rng, w, h)
		if err != nil {
			return fmt.Errorf("loadgen: synth corpus image %d: %w", i, err)
		}
		jpeg, err := encodeJPEG(img)
		if err != nil {
			return err
		}
		id, err := r.client.Upload(ctx, jpeg, r.rawPD)
		if err != nil {
			return fmt.Errorf("loadgen: seed corpus image %d: %w", i, err)
		}
		r.ids = append(r.ids, id)
		if len(r.rawJPEGs) < 4 {
			r.rawJPEGs = append(r.rawJPEGs, jpeg)
		}
	}
	r.cfg.Logf("corpus: %d images uploaded", len(r.ids))
	return nil
}

func encodeJPEG(img *jpegc.Image) ([]byte, error) {
	var buf bytes.Buffer
	if err := img.Encode(&buf, jpegc.EncodeOptions{Tables: jpegc.TablesOptimized}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// hotSpecs is the small fixed transform set hot GETs rotate through — the
// shapes a sharing UI serves constantly, and exactly what the serving
// cache should absorb.
var hotSpecs = []transform.Spec{
	{Op: transform.OpNone},
	{Op: transform.OpScale, FactorX: 0.5, FactorY: 0.5},
	{Op: transform.OpRotate90},
	{Op: transform.OpFlipH},
}

// thumbSpec is the single 1/8-scale spec the thumbnail route hammers —
// the grid-view shape the scaled-decode planner serves, and the same spec
// the psp ServeThumbnail benchmarks gate.
var thumbSpec = transform.Spec{Op: transform.OpScale, FactorX: 0.125, FactorY: 0.125}

// coldSpec returns a spec that has never been requested before in this
// run, defeating the transform cache on purpose.
func (r *Runner) coldSpec() transform.Spec {
	n := r.coldSeq.Add(1)
	return transform.Spec{Op: transform.OpScale, FactorX: 0.5 + float64(n%997)/2000 + float64(n)*1e-9, FactorY: 0.5}
}

// runOp executes one operation and returns its error.
func (r *Runner) runOp(ctx context.Context, route string, rng *rand.Rand, zipf *rand.Zipf) error {
	switch route {
	case RouteHotGet:
		id := r.ids[int(zipf.Uint64())]
		spec := hotSpecs[rng.Intn(len(hotSpecs))]
		_, err := r.client.FetchTransformed(ctx, id, spec)
		return err
	case RouteColdGet:
		id := r.ids[rng.Intn(len(r.ids))]
		_, err := r.client.FetchTransformed(ctx, id, r.coldSpec())
		return err
	case RouteThumb:
		id := r.ids[int(zipf.Uint64())]
		_, err := r.client.FetchTransformed(ctx, id, thumbSpec)
		return err
	case RouteUpload:
		_, err := r.client.Upload(ctx, r.rawJPEGs[rng.Intn(len(r.rawJPEGs))], r.rawPD)
		return err
	case RouteBatch:
		items := make([]psp.BatchUpload, 3)
		for i := range items {
			items[i] = psp.BatchUpload{Image: r.rawJPEGs[rng.Intn(len(r.rawJPEGs))], Params: r.rawPD}
		}
		results, err := r.client.UploadBatch(ctx, items)
		if err != nil {
			return err
		}
		// The envelope succeeded; fold per-item outcomes into the
		// taxonomy. A per-item 429 is an expected shed; any other
		// per-item failure is a real loss the envelope hid.
		var firstBad error
		for _, res := range results {
			switch {
			case res.Error == "":
			case res.Status == http.StatusTooManyRequests:
				r.itemSheds.Add(1)
			default:
				if firstBad == nil {
					firstBad = fmt.Errorf("loadgen: batch item failed (%d): %s: %w", res.Status, res.Error, psp.ErrRetryable)
				}
			}
		}
		return firstBad
	case RouteRecover:
		id := r.ids[int(zipf.Uint64())]
		if _, err := r.client.FetchImage(ctx, id); err != nil {
			return err
		}
		_, err := r.client.FetchParams(ctx, id)
		return err
	case RouteSearch:
		// A stored image must come back among its own nearest neighbors at
		// distance 0 — anything else is an integrity failure, not a latency
		// blip. (Exact top-1 is not required: the small synthetic corpus can
		// contain signature ties at distance 0.)
		id := r.ids[int(zipf.Uint64())]
		k := len(r.ids)
		if k > 100 {
			k = 100 // server-side cap
		}
		resp, err := r.client.SearchByID(ctx, id, k)
		if err != nil {
			return err
		}
		for _, hit := range resp.Results {
			if hit.ID == id && hit.Distance == 0 {
				return nil
			}
		}
		// A result list full of distance-0 ties can legitimately tie-break
		// the query image itself out; only an unsaturated list missing it is
		// a real integrity failure.
		if len(resp.Results) >= k && resp.Results[len(resp.Results)-1].Distance == 0 {
			return nil
		}
		return fmt.Errorf("loadgen: search for %s did not return itself at distance 0: %+v: %w",
			id, resp.Results, psp.ErrCorrupt)
	}
	return fmt.Errorf("loadgen: unknown route %q", route)
}

// record folds one op outcome into the stats.
func (r *Runner) record(route string, d time.Duration, err error) {
	rs := r.routes[route]
	rs.ops.Add(1)
	rs.hist.Record(d)
	class, expected := Classify(err)
	if class != ClassOK {
		rs.mu.Lock()
		rs.errs[class]++
		rs.mu.Unlock()
	}
	if !expected {
		r.unexpected.Add(1)
		r.mu.Lock()
		if len(r.samples) < 16 {
			r.samples = append(r.samples, fmt.Sprintf("%s: %v", route, err))
		}
		r.mu.Unlock()
	}
}

// Run drives traffic until the configured duration elapses (or ctx is
// canceled), then assembles the report. Setup must have run first.
func (r *Runner) Run(ctx context.Context) (*Report, error) {
	if len(r.ids) == 0 {
		return nil, errors.New("loadgen: Setup must run (and upload a corpus) before Run")
	}
	start := time.Now()
	stopAt := start.Add(r.cfg.Duration)
	if r.cfg.QPS > 0 {
		r.runOpenLoop(ctx, stopAt)
	} else {
		r.runClosedLoop(ctx, stopAt)
	}
	return r.buildReport(time.Since(start)), nil
}

// workerRNG builds a per-worker RNG + Zipf pair, seeded so run replays are
// exact.
func (r *Runner) workerRNG(worker int) (*rand.Rand, *rand.Zipf) {
	rng := rand.New(rand.NewSource(r.cfg.Seed + 1_000_003*int64(worker+1)))
	zipf := rand.NewZipf(rng, r.cfg.ZipfS, 1, uint64(len(r.ids)-1))
	return rng, zipf
}

// runClosedLoop runs Workers goroutines back-to-back: concurrency is
// fixed, arrival rate adapts to server speed (classic closed loop).
func (r *Runner) runClosedLoop(ctx context.Context, stopAt time.Time) {
	var wg sync.WaitGroup
	for w := 0; w < r.cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng, zipf := r.workerRNG(w)
			for time.Now().Before(stopAt) && ctx.Err() == nil {
				route := r.cfg.Mix.pick(rng)
				opStart := time.Now()
				err := r.runOp(ctx, route, rng, zipf)
				r.record(route, time.Since(opStart), err)
			}
		}(w)
	}
	wg.Wait()
}

// runOpenLoop fires seeded Poisson arrivals at QPS regardless of server
// speed — slow responses pile up concurrency instead of slowing arrivals,
// which is what makes open loop the honest overload probe.
func (r *Runner) runOpenLoop(ctx context.Context, stopAt time.Time) {
	rng, _ := r.workerRNG(0)
	var wg sync.WaitGroup
	next := time.Now()
	for seq := 1; time.Now().Before(stopAt) && ctx.Err() == nil; seq++ {
		// Exponential inter-arrival for a Poisson process at QPS.
		next = next.Add(time.Duration(rng.ExpFloat64() / r.cfg.QPS * float64(time.Second)))
		if d := time.Until(next); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		route := r.cfg.Mix.pick(rng)
		wg.Add(1)
		go func(seq int, route string) {
			defer wg.Done()
			orng, ozipf := r.workerRNG(seq)
			opStart := time.Now()
			err := r.runOp(ctx, route, orng, ozipf)
			r.record(route, time.Since(opStart), err)
		}(seq, route)
	}
	wg.Wait()
}

// buildReport snapshots every counter into a Report.
func (r *Runner) buildReport(elapsed time.Duration) *Report {
	rep := &Report{
		Seed:        r.cfg.Seed,
		DurationSec: elapsed.Seconds(),
		Corpus:      len(r.ids),
		Mode:        "closed",
		Routes:      make(map[string]RouteReport),
		ItemSheds:   r.itemSheds.Load(),
		Unexpected:  r.unexpected.Load(),
	}
	if r.cfg.QPS > 0 {
		rep.Mode = "open"
	}
	r.mu.Lock()
	rep.UnexpectedSamples = append([]string(nil), r.samples...)
	r.mu.Unlock()
	for route, rs := range r.routes {
		if rs.ops.Load() == 0 {
			continue
		}
		rs.mu.Lock()
		errs := make(map[string]uint64, len(rs.errs))
		var unexpected uint64
		for class, n := range rs.errs {
			errs[class] = n
			if class != ClassOK && class != ClassShed && class != ClassCanceled {
				unexpected += n
			}
		}
		rs.mu.Unlock()
		rep.Routes[route] = RouteReport{
			Ops:        rs.ops.Load(),
			Errors:     errs,
			Unexpected: unexpected,
			Latency:    rs.hist.Snapshot(),
		}
	}
	rep.Client = r.client.Stats()
	return rep
}

// sortedRoutes returns report route names in stable order.
func sortedRoutes(m map[string]RouteReport) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
