package searchidx

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"puppies/internal/benchgate"
)

// Search benchmarks. TestSearchAt100k asserts the headline bounds on the
// 10^5 corpus through the same benchmark functions:
//
//	BenchmarkSearchLookup10k/100k/1M   indexed k-NN, ns/op + p50-ns/p99-ns
//	BenchmarkSearchScan100k            exact brute-force baseline
//
// The corpus is synthetic and clustered: groups of sigma-4 noisy copies
// around random base signatures, queried with fresh noisy copies of a base.
// That is the near-duplicate regime the index serves (recompressed and
// transformed copies of a stored image, per the invariance tests): the k
// nearest neighbors are the cluster members, far below the inter-image
// distance floor, and recall@10 measures whether the probe set finds them.

// benchIndexes caches built indexes across -count runs and sub-benchmarks;
// a 10^6 build is far too expensive to repeat per run.
var benchIndexes = map[int]*benchCorpus{}

type benchCorpus struct {
	ix      *Index
	queries []Signature
	recall  float64 // recall@10 over 200 queries; 0 until first measured
}

const (
	benchQueries     = 512
	benchClusterSize = 16
	benchSigma       = 4
)

func corpusFor(tb testing.TB, n int) *benchCorpus {
	tb.Helper()
	if c, ok := benchIndexes[n]; ok {
		return c
	}
	rng := rand.New(rand.NewSource(int64(7 + n)))
	bases := make([]Signature, n/benchClusterSize)
	for i := range bases {
		bases[i] = randomSig(rng)
	}
	ids := make([]string, n)
	sigs := make([]Signature, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("b-%07d", i)
		sigs[i] = noisySig(rng, bases[i/benchClusterSize], benchSigma)
	}
	ix := New()
	ix.AddBatch(ids, sigs)
	c := &benchCorpus{ix: ix, queries: make([]Signature, benchQueries)}
	for i := range c.queries {
		c.queries[i] = noisySig(rng, bases[rng.Intn(len(bases))], benchSigma)
	}
	benchIndexes[n] = c
	return c
}

// benchmarkLookup measures per-query latency and reports the p50/p99
// quantiles alongside the standard ns/op.
func benchmarkLookup(b *testing.B, n int) {
	c := corpusFor(b, n)
	durs := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		_ = c.ix.LookupPlain(c.queries[i%len(c.queries)], 10)
		durs = append(durs, time.Since(t0))
	}
	b.StopTimer()
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	q := func(p float64) float64 {
		i := int(p * float64(len(durs)-1))
		return float64(durs[i])
	}
	b.ReportMetric(q(0.50), "p50-ns")
	b.ReportMetric(q(0.99), "p99-ns")
	if n == 100_000 {
		b.ReportMetric(c.recall10(), "recall-k10")
	}
}

// recall10 is measureRecall(c, 10, 200), computed once per corpus: the
// index and queries are fixed, and 200 exact scans would otherwise dominate
// every b.N round of the lookup benchmark.
func (c *benchCorpus) recall10() float64 {
	if c.recall == 0 {
		c.recall = measureRecall(c, 10, 200)
	}
	return c.recall
}

// measureRecall computes recall@k of the indexed lookup against the exact
// scanner over m held-out queries, counting ties at the k-th distance as
// acceptable answers (both orders are correct k-NN sets).
func measureRecall(c *benchCorpus, k, m int) float64 {
	hits, total := 0, 0
	for i := 0; i < m; i++ {
		q := c.queries[i%len(c.queries)]
		want := c.ix.Scan(q, k)
		got := c.ix.LookupPlain(q, k)
		if len(want) == 0 {
			continue
		}
		kth := want[len(want)-1].Distance
		ok := make(map[string]bool, len(want))
		for _, r := range want {
			ok[r.ID] = true
		}
		for _, r := range got {
			total++
			if ok[r.ID] || r.Distance <= kth {
				hits++
			}
		}
		total += len(want) - len(got)
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

func BenchmarkSearchLookup10k(b *testing.B)  { benchmarkLookup(b, 10_000) }
func BenchmarkSearchLookup100k(b *testing.B) { benchmarkLookup(b, 100_000) }
func BenchmarkSearchLookup1M(b *testing.B)   { benchmarkLookup(b, 1_000_000) }

// BenchmarkSearchScan100k is the brute-force baseline the indexed lookup
// must beat by minSpeedup100k.
func BenchmarkSearchScan100k(b *testing.B) {
	c := corpusFor(b, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.ix.Scan(c.queries[i%len(c.queries)], 10)
	}
}

// BenchmarkSearchBuild100k measures bulk index construction (AddBatch
// through internal/parallel) and reports build throughput.
func BenchmarkSearchBuild100k(b *testing.B) {
	const n = 100_000
	rng := rand.New(rand.NewSource(11))
	ids := make([]string, n)
	sigs := make([]Signature, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("b-%07d", i)
		sigs[i] = randomSig(rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := New()
		ix.AddBatch(ids, sigs)
	}
	b.StopTimer()
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "sigs/s")
}

// BenchmarkSADKernel vs BenchmarkSADNaive: the optimized 64-byte SAD
// against the obvious loop it replaced.
func benchmarkSAD(b *testing.B, f func(a []byte, off int, q *Signature) uint32) {
	rng := rand.New(rand.NewSource(13))
	const lanes = 1024
	slab := make([]byte, lanes*SigBytes)
	rng.Read(slab)
	q := randomSig(rng)
	b.SetBytes(SigBytes)
	b.ResetTimer()
	var s uint32
	for i := 0; i < b.N; i++ {
		s += f(slab, (i%lanes)*SigBytes, &q)
	}
	sink = s
}

var sink uint32

func BenchmarkSADKernel(b *testing.B) { benchmarkSAD(b, sad64) }
func BenchmarkSADNaive(b *testing.B)  { benchmarkSAD(b, sadNaive) }

// Bounds TestSearchAt100k asserts on the clustered 10^5 corpus. Measured
// on a 2-vCPU x86-64 host: lookup 146-258x faster than the scan, recall@10
// 0.9985, lookup p99 25-60µs.
const (
	minSpeedup100k = 50
	minRecall100k  = 0.9
	maxP99100k     = time.Millisecond
)

// TestSearchAt100k holds the indexed lookup to its bounds at 10^5
// signatures: at least minSpeedup100k faster than the exact scan, recall@10
// of at least minRecall100k, and p99 under maxP99100k. The time bounds
// skip under the race detector; recall always runs.
func TestSearchAt100k(t *testing.T) {
	c := corpusFor(t, 100_000)
	if r := c.recall10(); r < minRecall100k {
		t.Fatalf("recall@10 = %.4f, want >= %.2f", r, minRecall100k)
	}
	if benchgate.Race {
		t.Skip("time bounds skip under the race detector")
	}
	res := benchgate.Best(t, 3, BenchmarkSearchScan100k, BenchmarkSearchLookup100k)
	scan, lookup := res[0], res[1]
	speedup := float64(scan.NsPerOp()) / float64(lookup.NsPerOp())
	p99 := time.Duration(lookup.Extra["p99-ns"])
	t.Logf("10^5: lookup %.0fx faster than scan, recall@10 %.4f, p99 %v", speedup, c.recall10(), p99)
	if speedup < minSpeedup100k {
		t.Errorf("lookup only %.1fx faster than the exact scan, want >= %dx", speedup, minSpeedup100k)
	}
	if p99 > maxP99100k {
		t.Errorf("lookup p99 %v, want <= %v", p99, maxP99100k)
	}
}
