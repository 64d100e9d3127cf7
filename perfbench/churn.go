package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"time"

	"puppies/internal/jpegc"
	"puppies/internal/psp"
	"puppies/internal/servecache"
	"puppies/internal/transform"
)

// Churn mix: one upload per churnUploadEvery ops, the rest cold scales.
// The ratio is not taken from real traffic. loadgen.DefaultMix puts as
// many write ops (Upload+Batch, 15) as cold GETs (ColdGet, 15), which
// would put p50 on the boundary between uploads and reads; one in eight
// is an arbitrary choice that keeps both named percentiles inside the
// reads.
const (
	churnUploadEvery = 8
	churnMinScale    = 0.125
	churnMaxScale    = 0.75
)

// churnGet is one cold /transformed request, kept for re-derivation.
type churnGet struct {
	photo *photo
	spec  transform.Spec
	body  []byte
}

type churnUpload struct {
	src *photo
	id  string
}

// churnOp draws the i-th op: never-repeating scale factors over a
// uniformly chosen corpus photo, or an upload of a distinct key.
func churnOp(seed int64, i int, corpus, pool []*photo) (up *photo, key string, get *churnGet) {
	rng := splitmix(uint64(seed)*7919 + uint64(i))
	if isUpload(i) {
		return pool[rng.intn(len(pool))], fmt.Sprintf("churn-%d-%d", seed, i), nil
	}
	f := churnMinScale + rng.float()*(churnMaxScale-churnMinScale)
	return nil, "", &churnGet{photo: corpus[rng.intn(len(corpus))], spec: transform.Spec{Op: transform.OpScale, FactorX: f, FactorY: f}}
}

// isUpload reports whether the i-th op is an upload. The first op is one,
// so even the shortest run has both kinds.
func isUpload(i int) bool { return i%churnUploadEvery == 0 }

// churnSampled reports whether the i-th op is re-checked after the
// window: one read in every (the last op of each block of every ops, odd
// and so never an upload when every is even), and one upload in
// every/churnUploadEvery uploads (at least every upload). Uploads are
// counted apart from reads so the upload stride cannot keep them out of
// the sample.
func churnSampled(every, i int) bool {
	if isUpload(i) {
		return (i/churnUploadEvery)%max(every/churnUploadEvery, 1) == 0
	}
	return (i+1)%every == 0
}

// planned reports whether the server takes the scaled-decode planner for a
// variant: unprotected images only, and only where transform.PlanSpec
// chooses it.
func planned(p *photo, spec transform.Spec) bool {
	return !p.protected() && transform.PlanSpec(cameraProfile.W, cameraProfile.H, spec, false).Scaled
}

// rederive computes a variant the way psp.Server's /transformed does, from
// the uploaded bytes.
func rederive(g *churnGet) ([]byte, error) {
	img, err := jpegc.Decode(bytes.NewReader(g.photo.jpeg))
	if err != nil {
		return nil, err
	}
	apply := transform.Apply
	if planned(g.photo, g.spec) {
		apply = transform.ApplyPlanned
	}
	out, err := apply(img, g.spec)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = out.Encode(&buf, jpegc.EncodeOptions{Tables: jpegc.TablesOptimized})
	return buf.Bytes(), err
}

// workingSetRatio is the corpus's decoded coefficient bytes over the
// shards' combined coefficient-cache budget.
func workingSetRatio(corpus []*photo) float64 {
	var total int64
	for _, p := range corpus {
		total += p.coeffBytes
	}
	return float64(total) / (shards * coeffCacheBytes)
}

// setupChurn boots the cluster, uploads the corpus and fetches one cold
// variant of every photo, so the coefficient caches are full and evicting
// before the window.
func setupChurn(seed int64, corpus []*photo, tr *tracer) (*psCluster, error) {
	c, err := startCluster(tr)
	if err != nil {
		return nil, err
	}
	if err := c.upload(corpus); err != nil {
		c.close()
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	for _, p := range corpus {
		f := churnMinScale + rng.Float64()*(churnMaxScale-churnMinScale)
		code, body, err := c.do(http.MethodGet, specPath(p.id, "transformed", transform.Spec{Op: transform.OpScale, FactorX: f, FactorY: f}), nil, "", false, "")
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status %d: %s", code, body)
		}
		if err != nil {
			c.close()
			return nil, fmt.Errorf("churn warm: %w", err)
		}
	}
	return c, nil
}

// runChurn is the churn workload: a closed-loop client mixing uploads
// with cold scaled reads. It runs one client, not the two a 2-vCPU host
// could run: two clients keep both vCPUs busy, so any CPU the host takes
// away turns into queueing. Against one extra busy process on a 2-vCPU
// Xeon VM, two clients lost 37% of their throughput and their p99 doubled
// (+111%); one client lost 22% and its p99 rose 28%.
func runChurn(cfg config) (*outcome, error) {
	traced := cfg.trace
	sz := cfg.sizes
	corpus, err := makePhotos(cfg.seed, 0, sz.churnPhotos, true, "corpus")
	if err != nil {
		return nil, err
	}
	pool, err := makePhotos(cfg.seed, sz.churnPhotos, sz.churnPool, false, "pool")
	if err != nil {
		return nil, err
	}
	for _, p := range corpus {
		if p.coeffBytes >= coeffCacheBytes/servecache.DefaultShards {
			return nil, fmt.Errorf("churn: a photo's %d coefficient bytes exceed a coefficient-cache shard", p.coeffBytes)
		}
	}
	ws := workingSetRatio(corpus)
	if ws < sz.churnMinRatio {
		return nil, fmt.Errorf("churn: coefficient working set only %.2fx the shards' budget", ws)
	}
	o := &outcome{tailQ: 0.99}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var c *psCluster
	for i := 0; i < cfg.setups(); i++ {
		if c != nil {
			c.close()
			settle()
		}
		t := time.Now()
		c, err = setupChurn(cfg.seed, corpus, tr)
		o.setup = append(o.setup, time.Since(t))
		if err != nil {
			return nil, err
		}
	}
	defer c.close()

	var (
		gets    []*churnGet
		uploads []churnUpload
		planN   int
		getN    int
	)
	op := func(i int, traced bool) sample {
		up, key, get := churnOp(cfg.seed, i, corpus, pool)
		if up != nil {
			code, body, err := c.do(http.MethodPost, "/v1/images", up.body, key, traced, "upload")
			var r psp.UploadResponse
			if err == nil && code == http.StatusOK {
				err = json.Unmarshal(body, &r)
			}
			if err != nil || code != http.StatusOK || r.ID == "" {
				o.problem("churn upload: status %d err %v", code, err)
				return sample{traced: traced}
			}
			if churnSampled(sz.churnSampleEvery, i) {
				uploads = append(uploads, churnUpload{src: up, id: r.ID})
			}
			return sample{ok: true, traced: traced, bytes: len(body)}
		}
		code, body, err := c.do(http.MethodGet, specPath(get.photo.id, "transformed", get.spec), nil, "", traced, "transformed")
		if err != nil || code != http.StatusOK {
			o.problem("churn get: status %d err %v", code, err)
			return sample{traced: traced}
		}
		getN++
		if planned(get.photo, get.spec) {
			planN++
		}
		if churnSampled(sz.churnSampleEvery, i) {
			get.body = body
			gets = append(gets, get)
		}
		return sample{ok: true, traced: traced, bytes: len(body)}
	}

	// Untimed warm traffic of the same mix (ops numbered past any window),
	// then a settled heap.
	closedLoop(sz.warm, func(i int) sample { return op(1<<30+i, false) })
	settle()
	gets, uploads, planN, getN = nil, nil, 0, 0

	before, k0 := snapshot(), c.counters()
	// Traced runs trace alternate blocks of churnUploadEvery ops, so both
	// halves hold uploads and reads in the same proportion.
	samples := closedLoop(cfg.window, func(i int) sample {
		return op(i, traced && (i/churnUploadEvery)%2 == 0)
	})
	after, k1 := snapshot(), c.counters()
	o.collect(samples, before, after)
	o.failed += checkChurn(o, c, gets, uploads)
	o.header = map[string]any{
		"churn_ws_to_budget_ratio": ws,
		"churn_planned_share":      ratio(uint64(planN), uint64(getN)),
		"churn_scale_range":        []float64{churnMinScale, churnMaxScale},
		"churn_checked_gets":       len(gets),
		"churn_checked_uploads":    len(uploads),
	}
	if traced {
		tr.quiesce(5 * time.Second)
		o.layers = counterLayers(k1.sub(k0), o.attempted)
		o.layers["transform.planned_share"] = ratio(uint64(planN), uint64(getN))
		traceLayers(o, analyze(tr.all))
	}
	return o, nil
}

// checkChurn re-derives the sampled cold variants, round-trips the sampled
// uploads and requires search by each to return the image itself at
// distance 0. It returns the number of failed ops.
func checkChurn(o *outcome, c *psCluster, gets []*churnGet, uploads []churnUpload) int {
	failed := 0
	for _, g := range gets {
		want, err := rederive(g)
		if err != nil || !bytes.Equal(want, g.body) {
			o.problem("churn: %s of photo %s differs from transform.Apply[Planned] (err %v)", g.spec.Key(), g.photo.id, err)
			failed++
		}
	}
	sort.Slice(uploads, func(i, j int) bool { return uploads[i].id < uploads[j].id })
	for _, u := range uploads {
		code, body, err := c.do(http.MethodGet, "/v1/images/"+u.id, nil, "", false, "")
		if err != nil || code != http.StatusOK || !bytes.Equal(body, u.src.jpeg) {
			o.problem("churn: upload %s does not round-trip (status %d err %v)", u.id, code, err)
			failed++
			continue
		}
		code, body, err = c.do(http.MethodGet, fmt.Sprintf("/v1/search?id=%s&k=%d", u.id, 100), nil, "", false, "")
		var sr psp.SearchResponse
		if err == nil && code == http.StatusOK {
			err = json.Unmarshal(body, &sr)
		}
		found := false
		for _, r := range sr.Results {
			found = found || (r.ID == u.id && r.Distance == 0)
		}
		if err != nil || code != http.StatusOK || !found {
			o.problem("churn: search for upload %s does not return it at distance 0 (status %d err %v)", u.id, code, err)
			failed++
		}
	}
	return failed
}
