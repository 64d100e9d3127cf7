// Command loadgen replays seeded Zipf traffic mixes against a live PSP
// (single pspd or a cluster gateway), optionally driving a chaos schedule
// against an in-process selfhosted cluster, and prints a per-route latency
// and error summary (-report also writes the full report as JSON).
//
// Two targeting modes:
//
//	loadgen -target http://localhost:8080 -duration 30s -qps 200
//	loadgen -selfhost 3 -duration 8s -workers 12 -chaos gate
//
// -selfhost boots N shards plus a gateway on loopback listeners inside
// this process, which is what lets -chaos inject 503 bursts, latency
// spikes, partitions, and shard kills without root or containers. -chaos
// takes the builtin "gate" schedule or a JSON file (see DESIGN.md §15).
// The pass/fail assertions on such a run live in TestSoakChaosZipf.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"puppies/internal/loadgen"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		target   = fs.String("target", "", "base URL of a running pspd or gateway")
		selfhost = fs.Int("selfhost", 0, "boot an in-process cluster with this many shards instead of -target")
		seed     = fs.Int64("seed", 42, "seed for corpus, mix, Zipf ranks, and chaos")
		duration = fs.Duration("duration", 5*time.Second, "how long to drive load")
		workers  = fs.Int("workers", 8, "closed-loop concurrency")
		qps      = fs.Float64("qps", 0, "open-loop arrival rate (0 = closed loop)")
		mixFlag  = fs.String("mix", "", "op mix, e.g. hotget=50,coldget=15,upload=10,batch=5,recover=15,search=5")
		corpus   = fs.Int("corpus", 24, "distinct images uploaded before the run")
		zipfS    = fs.Float64("zipf", 1.2, "Zipf skew for hot GET ranks")
		chaos    = fs.String("chaos", "", `chaos schedule: "gate" for the builtin, or a JSON file (needs -selfhost)`)

		gwMaxInflight = fs.Int("gw-max-inflight", 0, "selfhost gateway admission capacity (0 = default)")
		gwAdmitWait   = fs.Duration("gw-admit-wait", 0, "selfhost gateway admission queue wait bound")
		gwAdmitQueue  = fs.Int("gw-admit-queue", 0, "selfhost gateway admission queue length")
		shMaxInflight = fs.Int("shard-max-inflight", 0, "selfhost per-shard admission capacity (0 = default)")

		reportPath = fs.String("report", "", "write the full report JSON here")
		verbose    = fs.Bool("v", false, "narrate progress and chaos events")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*target == "") == (*selfhost == 0) {
		fmt.Fprintln(stderr, "loadgen: exactly one of -target or -selfhost is required")
		return 2
	}
	if *chaos != "" && *selfhost == 0 {
		fmt.Fprintln(stderr, "loadgen: -chaos needs -selfhost (external targets cannot be faulted from here)")
		return 2
	}

	mix := loadgen.DefaultMix()
	if *mixFlag != "" {
		var err error
		if mix, err = loadgen.ParseMix(*mixFlag); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}

	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, a ...any) { fmt.Fprintf(stderr, format+"\n", a...) }
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	baseURL := *target
	var cluster *loadgen.SelfCluster
	if *selfhost > 0 {
		var err error
		cluster, err = loadgen.StartSelfCluster(loadgen.SelfConfig{
			Shards:             *selfhost,
			Seed:               *seed,
			GatewayMaxInflight: *gwMaxInflight,
			GatewayAdmitWait:   *gwAdmitWait,
			GatewayAdmitQueue:  *gwAdmitQueue,
			ShardMaxInflight:   *shMaxInflight,
		})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer cluster.Close()
		baseURL = cluster.URL
		logf("selfhost cluster up at %s (%d shards)", baseURL, *selfhost)
	}

	var schedule *loadgen.Schedule
	switch {
	case *chaos == "":
	case *chaos == "gate":
		schedule = loadgen.GateSchedule(*duration)
	default:
		data, err := os.ReadFile(*chaos)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		schedule = &loadgen.Schedule{}
		if err := json.Unmarshal(data, schedule); err != nil {
			fmt.Fprintf(stderr, "loadgen: parse %s: %v\n", *chaos, err)
			return 2
		}
		if err := schedule.Validate(cluster.Shards()); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}

	runner, err := loadgen.New(loadgen.Config{
		BaseURL:  baseURL,
		Seed:     *seed,
		Duration: *duration,
		Workers:  *workers,
		QPS:      *qps,
		Mix:      mix,
		Corpus:   *corpus,
		ZipfS:    *zipfS,
		Logf:     logf,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if err := runner.Setup(ctx); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	chaosDone := make(chan error, 1)
	if schedule != nil {
		go func() { chaosDone <- loadgen.RunSchedule(ctx, schedule, cluster, logf) }()
	} else {
		chaosDone <- nil
	}

	rep, err := runner.Run(ctx)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if err := <-chaosDone; err != nil {
		fmt.Fprintf(stderr, "loadgen: chaos schedule: %v\n", err)
		return 1
	}
	if cluster != nil {
		rep.FillCluster(cluster.Gateway())
	}

	rep.Summary(stdout)
	if *reportPath != "" {
		if err := writeJSON(*reportPath, rep); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
