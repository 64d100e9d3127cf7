// Command pspd runs the Photo Sharing Platform simulator: an HTTP service
// that stores perturbed images with their public parameters and transforms
// them on request, with no knowledge of PuPPIeS (paper Fig. 5).
//
//	pspd -addr :8754
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: GET /v1/healthz
// flips to 503 (with Retry-After) immediately so routing gateways stop
// sending traffic, the listener stays open for -drain-grace, then in-flight
// requests get -drain to finish and a clean shutdown exits 0. Each request
// is bounded by -request-timeout, and while healthy GET /v1/healthz reports
// liveness plus the store size.
//
// With -data-dir the daemon stores images durably via internal/blobstore:
// every upload is written as a checksummed envelope with write-to-temp,
// fsync, and atomic rename, so a crash (even SIGKILL or power loss) never
// corrupts an acknowledged image. On start the directory is scanned, bad
// files are quarantined (never deleted), and a recovery report is logged.
// Without -data-dir images live in memory only; either way the idempotency
// key index is bounded by -idempotency-cap, evicting the oldest key first.
//
// The serving path is cached (see internal/servecache): -cache-bytes
// budgets the encoded transform-output LRU and -coeff-cache-bytes the
// decoded-coefficient LRU (0 disables either). Concurrent identical
// requests collapse into one computation, image GETs carry strong ETags
// with Cache-Control: immutable, and GET /v1/statz reports hit/miss/
// eviction/collapse counters as JSON.
//
// For resilience testing, -fault-seed with -fault-rate/-fault-latency wires
// the deterministic internal/faults middleware in front of the API.
//
// API (see internal/psp):
//
//	GET  /v1/healthz                         liveness + store size
//	GET  /v1/statz                           serving-cache statistics
//	POST /v1/images                          upload {image, params} -> {id}
//	GET  /v1/images/{id}                     stored JPEG
//	GET  /v1/images/{id}/params              public parameters
//	GET  /v1/images/{id}/transformed?spec=J  transformed JPEG
//	GET  /v1/images/{id}/pixels?spec=J       transformed lossless pixels
//	GET  /v1/search?id=X&k=K                 k nearest stored images to image X
//	POST /v1/search?k=K                      k nearest stored images to the posted image
//
// Every accepted upload is also signature-indexed for /v1/search; with
// -data-dir the index persists under <data-dir>/searchidx via snapshot +
// journal and reloads on restart, keeping only the IDs the store loaded.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"puppies/internal/blobstore"
	"puppies/internal/faults"
	"puppies/internal/psp"
	"puppies/internal/searchidx"
	"puppies/internal/spine"
)

func cacheBudgetString(v int64) string {
	if v < 0 {
		return "off"
	}
	return fmt.Sprintf("%dB", v)
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, nil); err != nil {
		log.Fatal(err)
	}
}

// run is the testable daemon body. It serves until ctx is cancelled, then
// drains in-flight requests and returns nil on a clean shutdown. If ready
// is non-nil it receives the bound listen address once the socket is open.
func run(ctx context.Context, args []string, stdout io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("pspd", flag.ContinueOnError)
	d := spine.Daemon{Name: "pspd"}
	d.Flags(fs, ":8754", psp.DefaultInflightPerProc)
	dataDir := fs.String("data-dir", "", "durable storage directory; empty keeps images in memory only")
	idemCap := fs.Int("idempotency-cap", psp.DefaultMaxKeys, "max idempotency keys remembered (oldest evicted beyond)")
	cacheBytes := fs.Int64("cache-bytes", psp.DefaultVariantCacheBytes, "encoded transform-output cache budget in bytes (0 disables)")
	coeffCacheBytes := fs.Int64("coeff-cache-bytes", psp.DefaultCoeffCacheBytes, "decoded-coefficient cache budget in bytes (0 disables)")
	reqTimeout := fs.Duration("request-timeout", 60*time.Second, "per-request handler timeout (0 disables)")
	faultSeed := fs.Int64("fault-seed", 0, "enable fault-injection middleware with this RNG seed (0 disables)")
	faultRate := fs.Float64("fault-rate", 0, "probability of injecting the configured fault per request")
	faultLatency := fs.Duration("fault-latency", 0, "injected latency; with zero latency the injected fault is a 503")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var store psp.Store = psp.NewMemStoreBounded(*idemCap)
	var six *searchidx.Index // nil: a fresh in-memory index
	if *dataDir != "" {
		bs, report, err := blobstore.Open(*dataDir, blobstore.Options{MaxKeys: *idemCap})
		if err != nil {
			return fmt.Errorf("pspd: open data dir %s: %w", *dataDir, err)
		}
		defer bs.Close()
		fmt.Fprintf(stdout, "pspd recovery: %d records loaded, %d quarantined, %d unsupported, %d uploads pending at crash\n",
			report.Loaded, len(report.Quarantined), len(report.Unsupported), len(report.PendingUploads))
		for _, q := range report.Quarantined {
			fmt.Fprintf(stdout, "pspd quarantined %s -> %s: %s\n", q.From, q.To, q.Reason)
		}
		for _, u := range report.Unsupported {
			fmt.Fprintf(stdout, "pspd skipped future-version record %s\n", u)
		}
		// The search index persists next to the blobs: a restarted daemon
		// answers /v1/search without re-decoding the store, and only for
		// the records the store loaded.
		sixDir := filepath.Join(*dataDir, "searchidx")
		six, err = searchidx.OpenDir(nil, sixDir, func(id string) bool {
			_, _, ok, err := bs.Get(id)
			return ok && err == nil
		})
		if err != nil {
			return fmt.Errorf("pspd: open search index %s: %w", sixDir, err)
		}
		defer six.Close()
		store = bs
		fmt.Fprintf(stdout, "pspd search index: %d signatures loaded from %s\n", six.Len(), sixDir)
	}
	server := psp.NewServerWith(store)
	server.SearchIndex = six
	// Flag semantics: 0 disables a cache; the Server field spells that -1.
	server.VariantCacheBytes = *cacheBytes
	if *cacheBytes <= 0 {
		server.VariantCacheBytes = -1
	}
	server.CoeffCacheBytes = *coeffCacheBytes
	if *coeffCacheBytes <= 0 {
		server.CoeffCacheBytes = -1
	}
	fmt.Fprintf(stdout, "pspd serve cache: variants=%s coeffs=%s\n",
		cacheBudgetString(server.VariantCacheBytes), cacheBudgetString(server.CoeffCacheBytes))
	server.Limits = d.Limits
	handler := server.Handler()
	if *faultSeed != 0 {
		fault := faults.Fault{Kind: faults.Status503}
		if *faultLatency > 0 {
			fault = faults.Fault{Kind: faults.Latency, Delay: *faultLatency}
		}
		inj := faults.New(*faultSeed)
		inj.Rule(faults.Rule{Rate: *faultRate, Fault: fault})
		handler = inj.Middleware(handler)
		fmt.Fprintf(stdout, "pspd fault injection on: seed=%d rate=%g fault=%s\n",
			*faultSeed, *faultRate, fault.Kind)
	}
	// The timeout wraps the fault middleware so injected latency counts as
	// handler time: a stalled (faulted) request is cut off at -request-timeout
	// like any other slow handler.
	if *reqTimeout > 0 {
		handler = http.TimeoutHandler(handler, *reqTimeout, "request timed out\n")
	}

	return d.Serve(ctx, handler, server.SetDraining, stdout, ready)
}
