package parallel

import (
	"sync/atomic"
	"testing"
)

// withWorkers runs fn with the worker count pinned to n, restoring the
// previous override afterwards.
func withWorkers(n int, fn func()) {
	prev := SetWorkers(n)
	defer SetWorkers(prev)
	fn()
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		for _, n := range []int{0, 1, 5, 64, 1000} {
			for _, grain := range []int{1, 3, 64, 2000} {
				hits := make([]int32, n)
				withWorkers(workers, func() {
					For(n, grain, func(lo, hi int) {
						for i := lo; i < hi; i++ {
							atomic.AddInt32(&hits[i], 1)
						}
					})
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("workers=%d n=%d grain=%d: index %d visited %d times", workers, n, grain, i, h)
					}
				}
			}
		}
	}
}

func TestForChunksBoundariesIndependentOfWorkers(t *testing.T) {
	collect := func(workers, n, grain int) map[int][2]int {
		got := make(map[int][2]int)
		ch := make(chan [3]int, numChunks(n, grain))
		withWorkers(workers, func() {
			ForChunks(n, grain, func(chunk, lo, hi int) {
				ch <- [3]int{chunk, lo, hi}
			})
		})
		close(ch)
		for c := range ch {
			got[c[0]] = [2]int{c[1], c[2]}
		}
		return got
	}
	serial := collect(1, 103, 10)
	for _, workers := range []int{2, 4} {
		par := collect(workers, 103, 10)
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: %d chunks, want %d", workers, len(par), len(serial))
		}
		for c, b := range serial {
			if par[c] != b {
				t.Fatalf("workers=%d: chunk %d bounds %v, want %v", workers, c, par[c], b)
			}
		}
	}
}

func TestMapMergesInChunkOrder(t *testing.T) {
	for _, workers := range []int{1, 3} {
		withWorkers(workers, func() {
			parts := Map(100, 7, func(lo, hi int) int {
				sum := 0
				for i := lo; i < hi; i++ {
					sum += i
				}
				return sum
			})
			if len(parts) != numChunks(100, 7) {
				t.Fatalf("workers=%d: %d parts, want %d", workers, len(parts), numChunks(100, 7))
			}
			total := 0
			for _, p := range parts {
				total += p
			}
			if total != 99*100/2 {
				t.Fatalf("workers=%d: sum %d, want %d", workers, total, 99*100/2)
			}
		})
	}
}

func TestSetWorkersRestore(t *testing.T) {
	prev := SetWorkers(3)
	if got := Workers(); got != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", got)
	}
	SetWorkers(prev)
}

func TestScratchPoolsReturnZeroed(t *testing.T) {
	var pool SlicePool[uint64]
	s := pool.Get(16)
	for i := range s {
		s[i] = ^uint64(0)
	}
	pool.Put(s)
	s2 := pool.Get(8)
	for i, v := range s2 {
		if v != 0 {
			t.Fatalf("recycled slice not zeroed at %d: %x", i, v)
		}
	}
	// Growing within the recycled capacity must expose only zeroed memory,
	// including the poisoned bytes past the previous length.
	for i := range s2 {
		s2[i] = ^uint64(0)
	}
	pool.Put(s2)
	s3 := pool.Get(16)
	for i, v := range s3 {
		if v != 0 {
			t.Fatalf("regrown slice not zeroed at %d: %x", i, v)
		}
	}
	pool.Put(s3)
	// A request past any recycled capacity allocates fresh (zeroed) memory.
	big := pool.Get(1 << 12)
	for i, v := range big {
		if v != 0 {
			t.Fatalf("oversized slice not zeroed at %d: %x", i, v)
		}
	}
	pool.Put(big)
}
