// Command pspgw runs the PSP cluster gateway: a routing front for N pspd
// shards that presents the exact single-node PSP API (see internal/psp), so
// an unchanged psp.Client gets consistent-hash placement, R-way replicated
// uploads with write-quorum acks, hedged failover reads, circuit-breaker
// shard ejection, and asynchronous read repair (see internal/cluster).
//
//	pspgw -addr :8750 -shards http://127.0.0.1:8754,http://127.0.0.1:8755,http://127.0.0.1:8756
//
// Placement is a pure function of the shard list: any pspgw started with
// the same membership routes identically, so gateways are stateless and can
// be replicated freely. Membership changes at runtime through POST
// /v1/admin/shards {"op":"join"|"leave","shard":URL}, which rebalances
// before returning; POST /v1/admin/repair re-runs the verify/re-replicate
// walk on demand. GET /v1/statz reports cluster and per-shard counters.
//
// Every -probe-interval each shard's /v1/healthz feeds its breaker, so a
// crashed or draining shard stops receiving traffic within a probe period
// and is re-admitted by a successful probe after recovery.
//
// Shutdown mirrors pspd: on SIGINT/SIGTERM the gateway's own /v1/healthz
// flips to 503 for -drain-grace, then the listener closes and in-flight
// requests get -drain to finish.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"puppies/internal/cluster"
	"puppies/internal/psp"
	"puppies/internal/spine"
)

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
	fs := flag.NewFlagSet("pspgw", flag.ContinueOnError)
	d := spine.Daemon{Name: "pspgw"}
	d.Flags(fs, ":8750", cluster.DefaultGatewayInflightPerProc)
	shardList := fs.String("shards", "", "comma-separated shard base URLs (required)")
	replicas := fs.Int("replicas", cluster.DefaultReplicas, "replicas per image (R)")
	writeQuorum := fs.Int("write-quorum", 0, "replica acks required before an upload is answered (W; 0 means R/2+1)")
	vnodes := fs.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per shard on the hash ring")
	probeInterval := fs.Duration("probe-interval", cluster.DefaultProbeInterval, "shard health-check period")
	failThreshold := fs.Int("fail-threshold", cluster.DefaultFailThreshold, "consecutive failures that open a shard's breaker")
	breakerCooldown := fs.Duration("breaker-cooldown", cluster.DefaultBreakerCooldown, "initial breaker ejection window (doubles per failed probe)")
	breakerCooldownMax := fs.Duration("breaker-cooldown-max", cluster.DefaultBreakerCooldownMax, "breaker ejection window cap")
	hedgeDelay := fs.Duration("hedge-delay", cluster.DefaultHedgeDelay, "how long a read waits on one replica before hedging to the next")
	shardTimeout := fs.Duration("shard-timeout", cluster.DefaultShardTimeout, "per-shard request timeout")
	maxBody := fs.Int64("max-body", psp.DefaultMaxUpload, "request/response body byte cap")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var shards []string
	for _, s := range strings.Split(*shardList, ",") {
		if s = strings.TrimSpace(s); s != "" {
			shards = append(shards, s)
		}
	}
	if len(shards) == 0 {
		return fmt.Errorf("pspgw: -shards is required (comma-separated shard URLs)")
	}

	gw, err := cluster.New(cluster.Config{
		Shards:             shards,
		Replicas:           *replicas,
		WriteQuorum:        *writeQuorum,
		VNodes:             *vnodes,
		ShardTimeout:       *shardTimeout,
		HedgeDelay:         *hedgeDelay,
		MaxBody:            *maxBody,
		FailThreshold:      *failThreshold,
		BreakerCooldown:    *breakerCooldown,
		BreakerCooldownMax: *breakerCooldownMax,
		ProbeInterval:      *probeInterval,
		Limits:             d.Limits,
	})
	if err != nil {
		return fmt.Errorf("pspgw: %w", err)
	}
	probeCtx, stopProbes := context.WithCancel(context.Background())
	defer stopProbes()
	gw.Start(probeCtx)

	st := gw.Stats()
	fmt.Fprintf(stdout, "pspgw fronting %d shards (R=%d W=%d, %d ring points)\n",
		st.RingShards, st.Replicas, st.WriteQuorum, st.RingPoints)
	return d.Serve(ctx, gw.Handler(), gw.SetDraining, stdout, ready)
}
