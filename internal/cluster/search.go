package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"

	"puppies/internal/psp"
	"puppies/internal/searchidx"
	"puppies/internal/spine"
)

// Cluster search (GET/POST /v1/search): signatures are indexed
// shard-locally on every shard holding a replica of an image, so cluster
// k-NN is a scatter-gather — the query fans out to every member, each
// answers from its own index, and the gateway merges by minimum distance
// per image ID (replicas surface the same ID from R shards). Shards that
// cannot answer inside the per-shard timeout degrade the response instead
// of failing it: the merge proceeds over the reachable shards and the
// response carries partial=true, so callers know the k-NN set may be
// missing images whose replicas were all unreachable.
//
// A by-ID query 404s on shards that don't hold the image — that is a
// complete answer from a healthy shard, not a failure; the query only 404s
// overall when every reachable shard said so.

func (g *Gateway) handleSearch(w http.ResponseWriter, r *http.Request) {
	var body []byte
	if r.Method == http.MethodPost {
		var ok bool
		if body, ok = spine.ReadBody(w, r, g.cfg.MaxBody); !ok {
			return
		}
	}
	pathQ := r.URL.RequestURI()
	var hdr http.Header
	if ct := r.Header.Get("Content-Type"); ct != "" {
		hdr = http.Header{"Content-Type": {ct}}
	}

	members := g.members()
	if len(members) == 0 {
		g.writeUnavailable(w, 0, "cluster: no shards")
		return
	}

	best := make(map[string]uint32)
	answered, notFound := 0, 0
	var clientResp *shardResp
	// exchange applies the per-shard timeout; one slow or partitioned shard
	// delays the merge at most that long.
	for _, res := range g.fanOut(r.Context(), members, r.Method, pathQ, body, hdr) {
		switch res.o {
		case psp.Served:
			var sr psp.SearchResponse
			if json.Unmarshal(res.resp.body, &sr) != nil {
				continue
			}
			answered++
			for _, hit := range sr.Results {
				if d, ok := best[hit.ID]; !ok || hit.Distance < d {
					best[hit.ID] = hit.Distance
				}
			}
		case psp.Missing:
			notFound++
		case psp.Refused, psp.Damaged:
			// A deterministic client error (bad k, undecodable query body)
			// every shard would repeat, or the queried image's stored copy
			// is damaged: passed through when no shard answered.
			clientResp = res.resp
		}
	}

	switch {
	case answered == 0 && clientResp != nil:
		writeShardResp(w, clientResp)
		return
	case answered == 0 && notFound == len(members):
		// Every member answered and none holds the queried image.
		http.Error(w, "image not found on any shard", http.StatusNotFound)
		return
	case answered == 0:
		// Nothing reachable held an answer — and the shards that might have
		// (the queried image's replicas) were among the unreachable, so a
		// definitive 404 would be a lie. Tell the caller to retry.
		g.writeUnavailable(w, 0, "cluster: search replicas unreachable")
		return
	}

	merged := make([]sortableHit, 0, len(best))
	for id, d := range best {
		merged = append(merged, sortableHit{id, d})
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].d != merged[j].d {
			return merged[i].d < merged[j].d
		}
		return merged[i].id < merged[j].id
	})
	k := searchK(r)
	if len(merged) > k {
		merged = merged[:k]
	}
	out := psp.SearchResponse{
		Results: make([]searchidx.Result, 0, len(merged)),
		Partial: answered+notFound < len(members),
	}
	for _, h := range merged {
		out.Results = append(out.Results, searchidx.Result{ID: h.id, Distance: h.d})
	}
	spine.WriteJSON(w, http.StatusOK, out)
}

type sortableHit struct {
	id string
	d  uint32
}

// searchK mirrors the shard-side default: the shards have already validated
// the parameter (a bad k came back as a unanimous 400), so parsing here
// only has to agree with them on the default.
func searchK(r *http.Request) int {
	k := 10
	if raw := r.URL.Query().Get("k"); raw != "" {
		fmt.Sscanf(raw, "%d", &k)
	}
	if k < 1 {
		k = 1
	}
	return k
}
