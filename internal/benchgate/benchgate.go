// Package benchgate runs the repository's Benchmark functions from plain
// tests, so a performance bound is asserted by `go test` on the same code
// `go test -bench` measures.
package benchgate

import "testing"

// Best runs each benchmark rounds times, interleaving them so a burst of
// machine noise hits every side of a comparison alike, and returns each
// benchmark's fastest run: noise only ever slows a run down. A benchmark
// that fails (testing.Benchmark then reports zero iterations) fails t.
func Best(t testing.TB, rounds int, benches ...func(*testing.B)) []testing.BenchmarkResult {
	t.Helper()
	best := make([]testing.BenchmarkResult, len(benches))
	for r := 0; r < rounds; r++ {
		for i, bench := range benches {
			res := testing.Benchmark(bench)
			if res.N == 0 {
				t.Fatalf("benchmark %d of %d failed", i+1, len(benches))
			}
			if r == 0 || res.NsPerOp() < best[i].NsPerOp() {
				best[i] = res
			}
		}
	}
	return best
}
