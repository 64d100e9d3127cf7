package loadgen

import (
	"context"
	"testing"
	"time"

	"puppies/internal/benchgate"
)

// p99 ceilings for the hot transformed GET and the 1/8-scale thumbnail
// routes under TestSoakChaosZipf's chaos and shedding. Measured on a 2-vCPU
// x86-64 host: 2.4-4.1 ms p99 (median 3.3 ms) when the test runs alone, and
// up to 9 ms with the rest of `go test ./...` running beside it. The
// ceilings give the in-suite worst case 2.8x headroom and stay below 10x
// the idle median, so a 10x regression fails.
const (
	maxHotGetP99 = 25 * time.Millisecond
	maxThumbP99  = 25 * time.Millisecond
)

// TestSoakChaosZipf is the seeded load run: a 3-shard cluster with a
// deliberately tiny gateway admission capacity, Zipf traffic from several
// closed-loop workers, and the builtin gate schedule (full 503 blackout,
// partial burst, partition) running underneath. It asserts the whole
// robustness story at once:
//
//   - zero unexpected client-visible failures — every fault was absorbed
//     by failover, quorum, retries, or an honest 429;
//   - overload shedding actually happened (client saw 429s) and the
//     client retried them away;
//   - shard breakers tripped during the chaos AND recovered by the end;
//   - hot GET and thumbnail p99 stay under maxHotGetP99 and maxThumbP99
//     (skipped under the race detector).
//
// ~8s of wall time, all loopback.
func TestSoakChaosZipf(t *testing.T) {
	const total = 8 * time.Second

	c, err := StartSelfCluster(SelfConfig{
		Shards:             3,
		Seed:               42,
		GatewayMaxInflight: 4,
		GatewayAdmitWait:   10 * time.Millisecond,
		GatewayAdmitQueue:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	r, err := New(Config{
		BaseURL:  c.URL,
		Seed:     42,
		Duration: total,
		Workers:  12,
		Corpus:   16,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := r.Setup(ctx); err != nil {
		t.Fatal(err)
	}

	chaosDone := make(chan error, 1)
	go func() {
		chaosDone <- RunSchedule(ctx, GateSchedule(total), c, t.Logf)
	}()

	rep, err := r.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-chaosDone; err != nil {
		t.Fatalf("chaos schedule: %v", err)
	}
	rep.FillCluster(c.Gateway())
	if testing.Verbose() {
		rep.Summary(testWriter{t})
	}

	if rep.Unexpected != 0 {
		t.Fatalf("unexpected failures: %d, samples: %v", rep.Unexpected, rep.UnexpectedSamples)
	}
	if rep.TotalOps() == 0 {
		t.Fatal("no ops completed")
	}
	if rep.Sheds() == 0 {
		t.Fatal("overload shedding never exercised: want client-visible 429s under a capacity-4 gateway")
	}
	if rep.Cluster.BreakerOpens == 0 {
		t.Fatalf("no breaker tripped during chaos: %+v", rep.Cluster)
	}
	if rep.Cluster.BreakerRecoveries == 0 {
		t.Fatalf("no breaker recovered after chaos: %+v", rep.Cluster)
	}
	if rep.Cluster.OpenBreakers != 0 {
		t.Fatalf("breakers still open after the clean tail: %+v", rep.Cluster)
	}
	t.Logf("soak: %d ops, %d sheds, %d breaker recoveries, p99 hotget %v thumbnail %v",
		rep.TotalOps(), rep.Sheds(), rep.Cluster.BreakerRecoveries,
		time.Duration(rep.Routes[RouteHotGet].Latency.P99Ns), time.Duration(rep.Routes[RouteThumb].Latency.P99Ns))
	if benchgate.Race {
		return
	}
	for route, ceiling := range map[string]time.Duration{RouteHotGet: maxHotGetP99, RouteThumb: maxThumbP99} {
		rr, ok := rep.Routes[route]
		if !ok || rr.Ops == 0 {
			t.Errorf("route %s never ran", route)
			continue
		}
		if p99 := time.Duration(rr.Latency.P99Ns); p99 > ceiling {
			t.Errorf("route %s p99 %v, want <= %v", route, p99, ceiling)
		}
	}
}

// testWriter adapts t.Logf to io.Writer for Report.Summary.
type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	return len(p), nil
}
