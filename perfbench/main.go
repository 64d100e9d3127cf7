// Command perfbench is the PuPPIeS benchmark: one seeded command per
// workload that prints every end-to-end metric (or, traced, every per-layer
// metric) by name and unit, and checks the program's outputs as it goes.
//
//	bash perfbench/run.sh --workload share|views|churn --seed N --seconds S --trace 0|1
//
// The last stdout line is {"correct", "attempted", "failed", "metrics"};
// the line before it is the run's environment and workload-property header.
// Inputs derive from --seed only; the program sees nothing but them.
//
// # Workloads
//
// The paper's costs fall on three parties: senders protect and receivers
// recover (Table V), everyone pays storage overhead (Table II), and the PSP
// pays for every transformed view it serves (§IV-C, Fig. 16). One workload
// loads each, and each bypasses the others' mechanisms, so a change that
// helps one at another's expense shows.
//
//   - share: one closed-loop client runs puppies.Protect (VariantZ, the
//     render's face regions, deterministic keys) then puppies.UnprotectJPEG
//     on seeded 896x592 Caltech renders. It is all library work — pixel
//     import, FDCT, ROI alignment, perturbation, Huffman coding, recovery —
//     and never touches HTTP, caches, admission or the cluster, so serving
//     changes must leave it flat. Check: recovered bytes equal the render's
//     own FromPlanar + optimized encode (Lemma III.1); set-up also checks
//     that a region whose key is withheld stays perturbed.
//   - views: an open loop at a fixed Poisson rate (viewsRate) through a
//     cluster.Gateway over three psp.Server shards (R=3, as cluster-demo
//     deploys), each request timed from its due time (see openLoop).
//     Zipf(1.2)-popular hot /transformed reads and 1/8 thumbnails,
//     raw-image or /params recovery fetches, 1/4-scale /pixels of
//     protected images and /v1/search by id, over QVGA 4:2:0 camera JPEGs,
//     half of them protected, every variant computed in set-up. The kind
//     weights are loadgen.DefaultMix's read shares (see viewsMix). Every
//     read is a cache or store hit, so it measures the request path itself
//     — gateway hop, admission, handler, cache lookup — and bypasses codec,
//     transform and core. Check: each body is bytes.Equal to the one
//     captured in set-up; the run fails if the generator falls more than
//     maxBacklog behind its schedule.
//   - churn: one closed-loop client on the same cluster shape, mixing
//     uploads (decode validation, search signature and add, R-way
//     replication) with cold /transformed scales whose factors, drawn from
//     [1/8, 3/4], never repeat, so some requests take the scaled-decode
//     planner and some do not. Reads are uniform over a corpus whose decoded
//     coefficients are at least 3x the shards' combined coefficient budget
//     (both budgets are set explicitly and stated in the header). It uses
//     the caches views reads, but writes and evicts, and runs decode,
//     transform, planner, encode and indexing on every op. Check: after the
//     window, sampled variants are re-derived with transform.Apply or
//     ApplyPlanned (the server's path rule) and compared; sampled uploads
//     round-trip and search returns each at distance 0.
//
// BENCHMARK.json lists share and churn only. views runs on demand and in
// every traced run, which reports its layers, but its end-to-end figures
// are not steady enough on a shared 2-vCPU host to bound: its requests
// take half a millisecond, much of it waking threads on vCPUs the host
// has parked, so its latencies move with the host's load, not only with
// the program. Over ten 30 s runs on a 2-vCPU Xeon VM whose speed drifted
// by a quarter during the set (cpu_ms_per_op 0.58 to 0.46 ms), the spread
// between quartiles of runs was 32% of the median for the p90 and 22% for
// the p50, against 6% to 11% for share and churn over the same hour.
//
// Steadiness: no named percentile sits on the boundary between two op
// classes (share has one class; churn's latencies run smoothly with the
// scale factor across its classes, and its uploads are one op in eight,
// see churnUploadEvery); p50 is nearest-rank over every untraced op of
// the window and the tail is a block quantile (see blockQuantile), so a
// few seconds of other tenants' load on a shared host do not decide it;
// churn runs one client, not two, so it leaves a vCPU of headroom (see
// runChurn); caches, pools and the heap settle before the window;
// set-up runs three times and setup_s is the median; health probes run
// at the production cadence and no faults are injected; at most 2 client
// goroutines and connections (nproc of the 2-vCPU reference VM) are used;
// serving clients send pre-encoded bodies and keep responses as raw bytes,
// because psp.Client.Upload/FetchTransformed would encode and decode on
// the caller's side of the same two cores.
//
// # Layers and the metrics they should move
//
// A traced run (--trace 1) runs all three workloads in one process, each
// alternating traced and untraced ops, and reports every per-layer metric
// from the workload that exercises it; the runtime, trace and admission
// rows come from the --workload named. Spans are recorded by the benchmark
// around calls into each layer's public functions: the share chain calls
// the same imgplane/jpegc/roi/core functions the puppies facade does (its
// bytes are checked against the facade's); serving spans come from
// wrappers around the gateway handler, its Config.Transport, each
// psp.Server.Handler() and a psp.Store. Counts are Statz/Stats deltas.
// trace.coverage_pct is the share of an op's wall time its outermost layer
// spans cover (the chain calls on share, the gateway span within the
// client's on views and churn); trace.overhead_pct compares traced with
// untraced ops.
//
//	layer metric                          moves                       on
//	imgplane.import_ms, jpegc.*_ms,       latency_ms.p50,             share (flat on views)
//	core.*_ms, roi.align_ms               cpu_ms_per_op
//	runtime.alloc_mb_per_op, .gc_cpu_pct  cpu_ms_per_op               all
//	cluster.gateway_self_ms, .hop_ms,     latency_ms.p50/.tail        views
//	psp.get_ms, .search_ms, .store_ms,
//	servecache.variant_hit_ratio (~1)
//	cluster.shard_calls_per_op,           throughput_ops_s,           churn
//	.hedges_per_op, psp.upload_ms,        cpu_ms_per_op
//	.decodes_per_op, .transforms_per_op
//	servecache.coeff_hit_ratio,           latency_ms.p50/.tail,       churn
//	.evictions_per_op,                    mem_peak_mb
//	transform.planned_share
//	admission.shed_ratio (must be 0),     validity of the run         all
//	bench.late_ms.p99, trace.coverage_pct,
//	trace.overhead_pct
//
// Predictions: kernel work on the protect/recover path (ROADMAP item 1)
// moves share and leaves views flat; a shared serving spine and
// request-scoped observability (items 3 and 4) leave share untouched and
// views no worse.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"
)

// metricDef names one reported metric. from is the workload a per-layer
// metric is measured on ("" = the named workload).
type metricDef struct{ name, unit, from string }

// endToEnd are the --trace 0 metrics, reported for every workload.
// latency_ms.tail is p90 on share (a few hundred ops a run) and views
// (see viewsTailQ) and p99 on churn (thousands), taken over blocks of
// consecutive ops (see blockQuantile); latency_ms.p50 is over the whole
// window. The header states the tail's quantile, the op count and the
// whole-window tail.
var endToEnd = []metricDef{
	{"setup_s", "s", ""},
	{"latency_ms.p50", "ms", ""},
	{"latency_ms.tail", "ms", ""},
	{"throughput_ops_s", "1/s", ""},
	{"cpu_ms_per_op", "ms", ""},
	{"mem_peak_mb", "MB", ""},
	{"out_kb_per_op", "kB", ""},
}

// perLayer are the --trace 1 metrics.
var perLayer = []metricDef{
	{"imgplane.import_ms", "ms", "share"},
	{"jpegc.from_planar_ms", "ms", "share"},
	{"roi.align_ms", "ms", "share"},
	{"core.encrypt_ms", "ms", "share"},
	{"jpegc.encode_ms", "ms", "share"},
	{"core.params_ms", "ms", "share"},
	{"jpegc.decode_ms", "ms", "share"},
	{"core.decrypt_ms", "ms", "share"},
	{"jpegc.reencode_ms", "ms", "share"},
	{"runtime.alloc_mb_per_op", "MB", ""},
	{"runtime.gc_cpu_pct", "%", ""},
	{"cluster.gateway_self_ms", "ms", "views"},
	{"cluster.hop_ms", "ms", "views"},
	{"psp.get_ms", "ms", "views"},
	{"psp.search_ms", "ms", "views"},
	{"psp.store_ms", "ms", "views"},
	{"servecache.variant_hit_ratio", "ratio", "views"},
	{"bench.late_ms.p99", "ms", "views"},
	{"cluster.shard_calls_per_op", "count", "churn"},
	{"cluster.hedges_per_op", "count", "churn"},
	{"psp.upload_ms", "ms", "churn"},
	{"psp.decodes_per_op", "count", "churn"},
	{"psp.transforms_per_op", "count", "churn"},
	{"servecache.coeff_hit_ratio", "ratio", "churn"},
	{"servecache.evictions_per_op", "count", "churn"},
	{"transform.planned_share", "ratio", "churn"},
	{"admission.shed_ratio", "ratio", ""},
	{"trace.coverage_pct", "%", ""},
	{"trace.overhead_pct", "%", ""},
}

// sizes shape a run; the command line uses fullSizes and the smoke test a
// tiny copy.
type sizes struct {
	setups           int // set-ups per untraced run; setup_s is their median
	warm             time.Duration
	shareRenders     int
	viewsPhotos      int
	viewsRate        float64
	churnPhotos      int
	churnPool        int // distinct upload images
	churnMinRatio    float64
	churnSampleEvery int // one churn op in this many is re-checked
}

var fullSizes = sizes{
	setups:           3,
	warm:             time.Second,
	shareRenders:     24,
	viewsPhotos:      viewsPhotos,
	viewsRate:        viewsRate,
	churnPhotos:      224,
	churnPool:        64,
	churnMinRatio:    3,
	churnSampleEvery: 32,
}

type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	sizes    sizes
}

// setups is how many times a workload sets up; traced runs report no
// setup_s and set up once.
func (c config) setups() int {
	if c.trace {
		return 1
	}
	return c.sizes.setups
}

var workloads = map[string]func(config) (*outcome, error){
	"share": runShare,
	"views": runViews,
	"churn": runChurn,
}

// outcome is one workload's measurements.
type outcome struct {
	tailQ     float64
	attempted int
	failed    int
	lat       []float64 // ms, untraced ops
	tracedLat []float64 // ms, traced ops
	late      []float64 // ms, open loop only
	outBytes  int64     // untraced ops
	untraced  int
	win       usage
	setup     []time.Duration
	layers    map[string]float64
	header    map[string]any

	mu        sync.Mutex
	problems  []string
	nProblems int
}

func (o *outcome) problem(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.nProblems++
	if len(o.problems) < 5 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) collect(samples []sample, before, after resources) {
	for _, s := range samples {
		o.attempted++
		if !s.ok {
			o.failed++
		}
		if !s.traced {
			o.untraced++
			o.lat = append(o.lat, ms(s.lat))
			o.outBytes += int64(s.bytes)
		} else {
			o.tracedLat = append(o.tracedLat, ms(s.lat))
		}
	}
	o.win = between(before, after, o.attempted)
}

func (o *outcome) endToEnd() map[string]float64 {
	var setup []float64
	for _, d := range o.setup {
		setup = append(setup, d.Seconds())
	}
	return map[string]float64{
		"setup_s":          median(setup),
		"latency_ms.p50":   quantile(o.lat, 0.5),
		"latency_ms.tail":  blockQuantile(o.lat, o.tailQ),
		"throughput_ops_s": float64(o.attempted) / o.win.elapsed.Seconds(),
		"cpu_ms_per_op":    ms(o.win.cpuPerOp),
		"mem_peak_mb":      peakRSSMB(),
		"out_kb_per_op":    float64(o.outBytes) / float64(max(o.untraced, 1)) / 1000,
	}
}

// shared fills the per-layer rows every workload reports for itself. The
// tracing overhead compares the medians of the traced and untraced ops,
// which alternate over the same inputs.
func (o *outcome) shared() {
	o.layers["runtime.alloc_mb_per_op"] = o.win.allocPerOp
	o.layers["runtime.gc_cpu_pct"] = o.win.gcPct
	if len(o.tracedLat) > 0 && len(o.lat) > 0 {
		o.layers["trace.overhead_pct"] = 100 * (median(o.tracedLat)/median(o.lat) - 1)
	} else {
		o.layers["trace.overhead_pct"] = 0 // too short a run to have both kinds of op
	}
	if _, ok := o.layers["admission.shed_ratio"]; !ok {
		o.layers["admission.shed_ratio"] = 0 // share never reaches admission
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench runs cfg and returns the header and the result.
func bench(cfg config) (map[string]any, *result, error) {
	header := environment(cfg)
	res := &result{Metrics: map[string]metric{}}
	names := []string{cfg.workload}
	if cfg.trace {
		names = []string{"share", "views", "churn"}
	}
	outs := map[string]*outcome{}
	for _, n := range names {
		o, err := workloads[n](cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", n, err)
		}
		outs[n] = o
		res.Attempted += o.attempted
		res.Failed += o.failed
		for k, v := range o.header {
			header[k] = v
		}
		header[n+"_tail_quantile"] = o.tailQ
		header[n+"_tail_window_ms"] = quantile(o.lat, o.tailQ)
		header[n+"_ops"] = o.attempted
		if o.nProblems > 0 {
			header[n+"_problems"] = append(o.problems, fmt.Sprintf("%d problems in all", o.nProblems))
		}
		if o.layers != nil {
			o.shared()
		}
		settle()
	}
	res.Correct = res.Failed == 0
	for _, o := range outs {
		res.Correct = res.Correct && o.nProblems == 0
	}
	if !cfg.trace {
		for name, v := range outs[cfg.workload].endToEnd() {
			res.Metrics[name] = metric{v, unitOf(endToEnd, name)}
		}
		return header, res, nil
	}
	for _, d := range perLayer {
		from := d.from
		if from == "" {
			from = cfg.workload
		}
		v, ok := outs[from].layers[d.name]
		if !ok {
			return nil, nil, fmt.Errorf("%s did not measure %s", from, d.name)
		}
		res.Metrics[d.name] = metric{v, d.unit}
	}
	return header, res, nil
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("unknown metric " + name)
}

// environment is the header that lets runs be compared like with like.
func environment(cfg config) map[string]any {
	return map[string]any{
		"go":                  runtime.Version(),
		"cpu":                 cpuModel(),
		"nproc":               runtime.NumCPU(),
		"gomaxprocs":          runtime.GOMAXPROCS(0),
		"workload":            cfg.workload,
		"seed":                cfg.seed,
		"window_s":            cfg.window.Seconds(),
		"trace":               cfg.trace,
		"camera_size":         fmt.Sprintf("%dx%d", cameraProfile.W, cameraProfile.H),
		"variant_cache_bytes": variantCacheBytes,
		"coeff_cache_bytes":   coeffCacheBytes,
		"replicas":            replicas,
		"share_renders":       cfg.sizes.shareRenders,
		"views_photos":        cfg.sizes.viewsPhotos,
		"views_rate_per_s":    cfg.sizes.viewsRate,
		"churn_photos":        cfg.sizes.churnPhotos,
		"churn_upload_pool":   cfg.sizes.churnPool,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "share, views or churn")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "length of the timed window")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer breakdown")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if workloads[*workload] == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload share|views|churn, --seconds >= 1, --trace 0|1")
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1, sizes: fullSizes}
	if err := emit(cfg, stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// emit runs cfg and writes the header line and the result line.
func emit(cfg config, w io.Writer) error {
	header, res, err := bench(cfg)
	if err != nil {
		return err
	}
	hb, err := json.Marshal(map[string]any{"header": header})
	if err != nil {
		return err
	}
	rb, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", hb, rb)
	return err
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
