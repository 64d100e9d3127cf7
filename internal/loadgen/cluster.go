package loadgen

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"puppies/internal/cluster"
	"puppies/internal/faults"
	"puppies/internal/psp"
	"puppies/internal/spine"
)

// SelfConfig shapes an in-process cluster for selfhost load runs.
type SelfConfig struct {
	// Shards is the member count (default 3).
	Shards int
	// Seed feeds the fault injectors and partition RNGs.
	Seed int64
	// Replicas is R (default min(3, Shards)); WriteQuorum stays the
	// gateway default R/2+1.
	Replicas int

	// Gateway admission knobs (zero = cluster defaults; the load gate
	// constrains these to force client-visible 429s).
	GatewayMaxInflight int
	GatewayAdmitWait   time.Duration
	GatewayAdmitQueue  int
	// ShardMaxInflight caps each shard's own admission (zero = default).
	ShardMaxInflight int

	// Probe/breaker cadence; the selfhost defaults are much faster than
	// production so chaos windows of a few hundred ms trip AND recover
	// breakers within a short run.
	ProbeInterval   time.Duration
	BreakerCooldown time.Duration
	FailThreshold   int
}

// selfShard is one in-process PSP shard: a psp.Server whose handler is
// wrapped by a swappable fault injector, served on a fixed loopback
// address so kill/restart cycles come back at the same ring position. The
// store lives on the psp.Server, not the listener, so a restart models a
// process crash with durable storage.
type selfShard struct {
	seed int64
	psp  *psp.Server
	base http.Handler

	handler atomic.Value // of hval; swapped when chaos changes

	mu    sync.Mutex
	addr  string
	srv   *http.Server
	rate  float64       // active 503 rate
	delay time.Duration // active added latency
}

// hval wraps handlers so atomic.Value sees one concrete type.
type hval struct{ h http.Handler }

func (s *selfShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.Load().(hval).h.ServeHTTP(w, r)
}

// setFaults rebuilds the shard's middleware from the currently active 503
// rate and latency. The 503 rule is first so a burst keeps its statistical
// rate even when a latency spike is also active.
func (s *selfShard) setFaults(rate float64, delay time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rate, s.delay = rate, delay
	if rate == 0 && delay == 0 {
		s.handler.Store(hval{s.base})
		return
	}
	in := faults.New(s.seed)
	if rate > 0 {
		in.Rule(faults.Rule{Rate: rate, Fault: faults.Fault{Kind: faults.Status503, RetryAfter: 100 * time.Millisecond}})
	}
	if delay > 0 {
		in.Rule(faults.Rule{Rate: 1, Fault: faults.Fault{Kind: faults.Latency, Delay: delay}})
	}
	s.handler.Store(hval{in.Middleware(s.base)})
}

// kill closes the listener; in-flight requests are cut, new connections
// are refused.
func (s *selfShard) kill() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.srv == nil {
		return nil
	}
	err := s.srv.Close()
	s.srv = nil
	return err
}

// restart re-listens on the shard's original address with the same store.
func (s *selfShard) restart() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.srv != nil {
		return nil
	}
	ln, err := net.Listen("tcp", s.addr)
	if err != nil {
		return fmt.Errorf("loadgen: restart shard on %s: %w", s.addr, err)
	}
	srv := &http.Server{Handler: s}
	s.srv = srv
	go serveIgnoringClose(srv, ln)
	return nil
}

func serveIgnoringClose(srv *http.Server, ln net.Listener) {
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		// Listener died outside a kill event; nothing to do but note it —
		// traffic to this shard will fail over and the breaker ejects it.
		_ = err
	}
}

// SelfCluster is an in-process N-shard PSP cluster (gateway + shards on
// loopback listeners) that implements Hooks, so a chaos schedule can fault
// it without any external process management.
type SelfCluster struct {
	// URL is the gateway base URL load is pointed at.
	URL string

	cfg    SelfConfig
	shards []*selfShard
	part   *faults.Partition
	gw     *cluster.Gateway
	gwSrv  *http.Server
	cancel context.CancelFunc
}

// StartSelfCluster boots the shards and gateway and starts health probing.
func StartSelfCluster(cfg SelfConfig) (*SelfCluster, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 3
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = cfg.Shards
		if cfg.Replicas > 3 {
			cfg.Replicas = 3
		}
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 100 * time.Millisecond
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 200 * time.Millisecond
	}

	c := &SelfCluster{cfg: cfg, part: faults.NewPartition(cfg.Seed + 101)}
	urls := make([]string, 0, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		ps := psp.NewServer()
		ps.MaxInflight = cfg.ShardMaxInflight
		sh := &selfShard{seed: cfg.Seed + int64(i)*7919, psp: ps, base: ps.Handler()}
		sh.handler.Store(hval{sh.base})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.Close()
			return nil, err
		}
		sh.addr = ln.Addr().String()
		srv := &http.Server{Handler: sh}
		sh.srv = srv
		go serveIgnoringClose(srv, ln)
		c.shards = append(c.shards, sh)
		urls = append(urls, "http://"+sh.addr)
	}

	gw, err := cluster.New(cluster.Config{
		Shards:          urls,
		Replicas:        cfg.Replicas,
		Transport:       c.part.Transport(&http.Transport{MaxIdleConnsPerHost: 32}),
		ShardTimeout:    3 * time.Second,
		HedgeDelay:      75 * time.Millisecond,
		FailThreshold:   cfg.FailThreshold,
		BreakerCooldown: cfg.BreakerCooldown,
		ProbeInterval:   cfg.ProbeInterval,
		Limits: spine.Limits{
			MaxInflight: cfg.GatewayMaxInflight,
			AdmitWait:   cfg.GatewayAdmitWait,
			AdmitQueue:  cfg.GatewayAdmitQueue,
		},
	})
	if err != nil {
		c.Close()
		return nil, err
	}
	c.gw = gw
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	gw.Start(ctx)

	gwLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.Close()
		return nil, err
	}
	c.gwSrv = &http.Server{Handler: gw.Handler()}
	go serveIgnoringClose(c.gwSrv, gwLn)
	c.URL = "http://" + gwLn.Addr().String()
	return c, nil
}

// Gateway exposes the live gateway for stats assertions after a run.
func (c *SelfCluster) Gateway() *cluster.Gateway { return c.gw }

// Close tears the whole cluster down.
func (c *SelfCluster) Close() {
	if c.cancel != nil {
		c.cancel()
	}
	if c.gwSrv != nil {
		_ = c.gwSrv.Close()
	}
	for _, sh := range c.shards {
		_ = sh.kill()
	}
	c.part.HealAll()
}

// Shards implements Hooks.
func (c *SelfCluster) Shards() int { return len(c.shards) }

// Burst503 implements Hooks.
func (c *SelfCluster) Burst503(shard int, rate float64) {
	sh := c.shards[shard]
	sh.mu.Lock()
	delay := sh.delay
	sh.mu.Unlock()
	sh.setFaults(rate, delay)
}

// Latency implements Hooks.
func (c *SelfCluster) Latency(shard int, d time.Duration) {
	sh := c.shards[shard]
	sh.mu.Lock()
	rate := sh.rate
	sh.mu.Unlock()
	sh.setFaults(rate, d)
}

// Partition implements Hooks: the gateway's transport refuses connections
// to the shard, exactly like a dropped network path.
func (c *SelfCluster) Partition(shard int) {
	c.part.Isolate(c.shards[shard].addr, faults.LinkUnreachable)
}

// Heal implements Hooks.
func (c *SelfCluster) Heal(shard int) {
	c.part.Heal(c.shards[shard].addr)
}

// Kill implements Hooks.
func (c *SelfCluster) Kill(shard int) error { return c.shards[shard].kill() }

// Restart implements Hooks.
func (c *SelfCluster) Restart(shard int) error { return c.shards[shard].restart() }
