package main

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is one completed operation.
type sample struct {
	lat    time.Duration // op latency; see closedLoop and openLoop for its start
	late   time.Duration // open loop only: how late the generator sent it
	ok     bool
	traced bool
	bytes  int
}

// closedLoop issues op back to back until the window ends and returns the
// samples in issue order. The i-th op depends only on i, so inputs are the
// same on every run with the same seed; how many ops fit in the window is
// what is measured.
func closedLoop(window time.Duration, op func(i int) sample) []sample {
	var out []sample
	deadline := time.Now().Add(window)
	for i := 0; time.Now().Before(deadline); i++ {
		start := time.Now()
		s := op(i)
		s.lat = time.Since(start)
		out = append(out, s)
	}
	return out
}

// openLoop sends op k at start+due[k] from a pool of workers goroutines and
// returns the samples in schedule order. Every op is timed from its due
// time, so a stall charges the ops queued behind it and a late wake-up
// counts as latency; late records how far behind schedule the generator
// sent each op. Workers wait in sleepUntil, not time.Sleep, so the
// generator's own timer error stays well below the request path's
// latency.
func openLoop(workers int, due []time.Duration, op func(k int) sample) []sample {
	out := make([]sample, len(due))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(due) {
					return
				}
				at := start.Add(due[k])
				sleepUntil(at)
				sent := time.Now()
				s := op(k)
				s.lat = time.Since(at)
				s.late = sent.Sub(at)
				out[k] = s
			}
		}()
	}
	wg.Wait()
	return out
}

// sleepUntil blocks the calling goroutine until t in a nanosleep system
// call. time.Sleep parks on the runtime's timers, which an idle process
// serves from an epoll wait with a whole-millisecond timeout, so a
// sub-millisecond wait wakes up to a millisecond late (0.46 ms at the
// median for the views generator on a 2-vCPU Xeon VM, more than the
// request itself); nanosleep wakes within the kernel's timer slack
// (0.09 ms at the median on the same VM).
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// poissonSchedule returns the due times of a Poisson process at rate per
// second over window, conditioned on its mean count: exactly rate*window
// arrivals, placed as the order statistics of a Poisson process, so the
// offered load is the same on every seed.
func poissonSchedule(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	n := int(rate * window.Seconds())
	gaps := make([]float64, n+1)
	total := 0.0
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		total += gaps[i]
	}
	due := make([]time.Duration, n)
	t := 0.0
	for i := range due {
		t += gaps[i]
		due[i] = time.Duration(t / total * float64(window))
	}
	return due
}

// quantile returns the q-quantile of xs (nearest rank on a sorted copy).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// blockQuantile is the q-quantile of xs, which are in the order the ops
// were issued, taken over consecutive blocks: xs is cut into blocks just
// large enough to hold ten samples beyond the quantile (1,000 ops for
// p99, 100 for p90), and the result is the median of the blocks' own
// q-quantiles. A tail that recurs through the run (a GC cycle, cache
// eviction, a slow op class) shows in every block and moves it; a burst
// that fills fewer than half of the blocks does not. On a shared 2-vCPU
// host such bursts are other tenants' load lasting a few seconds; they
// can decide the whole-window quantile, which the header states beside
// it as <workload>_tail_window_ms.
func blockQuantile(xs []float64, q float64) float64 {
	size := int(math.Round(10 / (1 - q)))
	n := len(xs) / size
	if n < 3 {
		return quantile(xs, q)
	}
	per := make([]float64, n)
	for b := range per {
		per[b] = quantile(xs[b*size:(b+1)*size], q)
	}
	return median(per)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// resources is a snapshot of process-wide counters; windows are measured as
// the difference of two snapshots.
type resources struct {
	wall       time.Time
	cpu        time.Duration // user+sys from getrusage
	allocBytes uint64
	gcCPU      float64 // seconds, runtime/metrics
	busyCPU    float64 // seconds, total minus idle
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func snapshot() resources {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(cpuMetrics))
	copy(s, cpuMetrics)
	metrics.Read(s)
	return resources{
		wall:       time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: ms.TotalAlloc,
		gcCPU:      s[0].Value.Float64(),
		busyCPU:    s[1].Value.Float64() - s[2].Value.Float64(),
	}
}

// peakRSSMB is the process's maximum resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// settle runs the collector to completion twice so the timed window starts
// without garbage left over from set-up.
func settle() {
	runtime.GC()
	runtime.GC()
}

// usage summarizes the resource use between two snapshots over ops
// completed operations.
type usage struct {
	elapsed    time.Duration
	cpuPerOp   time.Duration
	allocPerOp float64 // MB
	gcPct      float64
}

func between(a, b resources, ops int) usage {
	w := usage{elapsed: b.wall.Sub(a.wall)}
	if ops > 0 {
		w.cpuPerOp = (b.cpu - a.cpu) / time.Duration(ops)
		w.allocPerOp = float64(b.allocBytes-a.allocBytes) / float64(ops) / (1 << 20)
	}
	if busy := b.busyCPU - a.busyCPU; busy > 0 {
		w.gcPct = 100 * (b.gcCPU - a.gcCPU) / busy
	}
	return w
}

// splitmix is a counter-based generator (SplitMix64): an op's inputs derive
// from its own seed, so they do not depend on the ops before it.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (s *splitmix) float() float64 { return float64(s.next()>>11) / (1 << 53) }

func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }
