package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"puppies/internal/psp"
	"puppies/internal/spine"
)

// goRepair schedules an asynchronous repair of id onto target, deduplicating
// concurrent attempts for the same (id, shard) pair so a burst of failovers
// cannot stampede a recovering shard.
func (g *Gateway) goRepair(id string, target *shard) {
	key := id + "|" + target.url
	g.repairMu.Lock()
	if g.repairInflight[key] {
		g.repairMu.Unlock()
		return
	}
	g.repairInflight[key] = true
	g.repairMu.Unlock()
	go func() {
		defer func() {
			g.repairMu.Lock()
			delete(g.repairInflight, key)
			g.repairMu.Unlock()
		}()
		ctx, cancel := context.WithTimeout(context.Background(), 4*g.cfg.ShardTimeout)
		defer cancel()
		g.repairSync(ctx, id, target)
	}()
}

// repairSync re-replicates id onto target: fetch the image and params from
// any replica (or any other member) that has them, then PUT them to target
// under the same ID. The shard-side PUT is a compare-on-conflict idempotent
// store, so repairs racing each other, racing the original upload, or
// re-running after a partial failure all converge on one byte-identical
// copy. Returns whether target now has the record because of this call.
func (g *Gateway) repairSync(ctx context.Context, id string, target *shard) bool {
	sources := g.replicaShards(id)
	sources = append(sources, g.otherMembers(id)...)
	for _, src := range sources {
		if src == target {
			continue
		}
		o, resp := g.exchange(ctx, src, http.MethodGet, "/v1/images/"+id, nil, nil)
		if o != psp.Served {
			continue
		}
		o, presp := g.exchange(ctx, src, http.MethodGet, "/v1/images/"+id+"/params", nil, nil)
		if o != psp.Served {
			continue
		}
		var params json.RawMessage
		if trimmed := bytes.TrimSpace(presp.Body); !bytes.Equal(trimmed, []byte("null")) && len(trimmed) > 0 {
			params = presp.Body
		}
		body, err := json.Marshal(psp.UploadRequest{Image: resp.Body, Params: params})
		if err != nil {
			return false
		}
		o, put := g.exchange(ctx, target, http.MethodPut, "/v1/images/"+id, body,
			http.Header{"Content-Type": {"application/json"}})
		switch {
		case o == psp.Served:
			g.readRepairs.Add(1)
			target.readRepairs.Add(1)
			return true
		case o == psp.Refused && put.Status == http.StatusConflict:
			// Target holds different bytes under this ID. Never overwrite
			// silently; surface it as a divergence.
			g.divergences.Add(1)
		}
		return false
	}
	return false
}

// RepairReport summarizes one verify/re-replicate walk.
type RepairReport struct {
	// Checked is how many (image, replica) pairs were probed.
	Checked int `json:"checked"`
	// Repaired is how many missing replicas were restored.
	Repaired int `json:"repaired"`
	// Failed is how many missing replicas could not be restored (no
	// reachable source, or the target refused).
	Failed int `json:"failed"`
	// Images is how many distinct images the walk covered.
	Images int `json:"images"`
}

// RepairAll walks every image in the cluster and restores full R-way
// replication: for each image, each replica the ring assigns is existence-
// probed and re-uploaded from a surviving copy when missing. It is the
// rebalance mechanism after membership changes (new replica assignments
// start empty) and the recovery mechanism after a shard comes back from a
// crash. The walk is idempotent and safe to re-run at any time.
func (g *Gateway) RepairAll(ctx context.Context) (RepairReport, error) {
	ids, reachable := g.mergedIDs(ctx)
	if reachable == 0 {
		return RepairReport{}, fmt.Errorf("cluster: no shard reachable for repair walk")
	}
	var rep RepairReport
	rep.Images = len(ids)
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		for _, sh := range g.replicaShards(id) {
			rep.Checked++
			// Existence probe via /params: cheap (tiny body) and 404 is
			// authoritative for the whole record.
			if o, _ := g.exchange(ctx, sh, http.MethodGet, "/v1/images/"+id+"/params", nil, nil); o != psp.Missing {
				continue
			}
			if g.repairSync(ctx, id, sh) {
				rep.Repaired++
			} else {
				rep.Failed++
			}
		}
	}
	return rep, nil
}

func (g *Gateway) handleRepair(w http.ResponseWriter, r *http.Request) {
	rep, err := g.RepairAll(r.Context())
	if err != nil {
		g.writeUnavailable(w, 0, err.Error())
		return
	}
	spine.WriteJSON(w, http.StatusOK, rep)
}

// MembershipChange is the POST /v1/admin/shards body.
type MembershipChange struct {
	// Op is "join" or "leave".
	Op string `json:"op"`
	// Shard is the shard base URL.
	Shard string `json:"shard"`
}

// MembershipResponse reports the membership after a change plus the
// rebalance walk it triggered.
type MembershipResponse struct {
	Shards    []string     `json:"shards"`
	Changed   bool         `json:"changed"`
	Rebalance RepairReport `json:"rebalance"`
}

// ShardInfo is one row of GET /v1/admin/shards.
type ShardInfo struct {
	URL          string `json:"url"`
	BreakerState string `json:"breakerState"`
}

func (g *Gateway) handleShardsGet(w http.ResponseWriter, r *http.Request) {
	g.mu.RLock()
	members := g.ring.Members()
	infos := make([]ShardInfo, 0, len(members))
	for _, u := range members {
		infos = append(infos, ShardInfo{URL: u, BreakerState: g.shards[u].breaker.State().String()})
	}
	g.mu.RUnlock()
	spine.WriteJSON(w, http.StatusOK, struct {
		Shards []ShardInfo `json:"shards"`
	}{Shards: infos})
}

// handleShardsPost applies a join/leave and synchronously runs the
// rebalance walk, so when the call returns the new placement is fully
// replicated. Reads stay correct throughout: the rescue path in
// handleProxy falls back to non-replica members while records are still
// moving.
func (g *Gateway) handleShardsPost(w http.ResponseWriter, r *http.Request) {
	body, ok := spine.ReadBody(w, r, 1<<16)
	if !ok {
		return
	}
	var ch MembershipChange
	if err := json.Unmarshal(body, &ch); err != nil {
		http.Error(w, fmt.Sprintf("decode request: %v", err), http.StatusBadRequest)
		return
	}
	var (
		changed bool
		err     error
	)
	switch ch.Op {
	case "join":
		changed, err = g.addShard(ch.Shard)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	case "leave":
		changed, err = g.removeShard(ch.Shard)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		g.mu.RLock()
		remaining := g.ring.Size()
		g.mu.RUnlock()
		if remaining == 0 {
			http.Error(w, "cluster: refusing to remove the last shard", http.StatusConflict)
			// Roll back.
			_, _ = g.addShard(ch.Shard)
			return
		}
	default:
		http.Error(w, fmt.Sprintf("unknown op %q (want join or leave)", ch.Op), http.StatusBadRequest)
		return
	}

	rep, err := g.RepairAll(r.Context())
	if err != nil {
		g.writeUnavailable(w, 0, fmt.Sprintf("membership changed but rebalance failed: %v", err))
		return
	}
	g.mu.RLock()
	members := g.ring.Members()
	g.mu.RUnlock()
	spine.WriteJSON(w, http.StatusOK, MembershipResponse{Shards: members, Changed: changed, Rebalance: rep})
}

// Start launches the background health checker: every ProbeInterval each
// shard's /v1/healthz is probed, feeding the per-shard breakers — so a
// crashed or draining shard (healthz 503 with Retry-After) is ejected from
// the routing order within a probe period, and a recovered shard is
// re-admitted through the breaker's half-open probe. Re-admission also
// re-arms read verification so post-recovery GETs re-check replica
// agreement. Start returns immediately; probing stops when ctx is done.
func (g *Gateway) Start(ctx context.Context) {
	go func() {
		ticker := time.NewTicker(g.cfg.ProbeInterval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				g.probeOnce(ctx)
			}
		}
	}()
}

// probeOnce health-checks every shard in parallel and waits for the round.
func (g *Gateway) probeOnce(ctx context.Context) {
	members := g.members()
	ejected := make([]bool, len(members))
	for i, sh := range members {
		ejected[i] = sh.breaker.State() != BreakerClosed
	}
	g.fanOut(ctx, members, http.MethodGet, "/v1/healthz", nil, nil)
	for i, sh := range members {
		if ejected[i] && sh.breaker.State() == BreakerClosed {
			// The shard may have restarted with holes (e.g. writes it
			// missed while down): make reads re-verify replica agreement
			// so read repair can fill them.
			g.clearVerified()
		}
	}
}
