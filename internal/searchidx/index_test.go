package searchidx

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"puppies/internal/benchgate"
)

// randomSig draws a plausible post-normalization signature: cells around
// 128 with sigma 40, clamped to bytes — the same distribution Compute
// produces, so bucket occupancy in tests matches production.
func randomSig(rng *rand.Rand) Signature {
	var s Signature
	for i := range s {
		v := 128 + 40*rng.NormFloat64()
		switch {
		case v < 0:
			s[i] = 0
		case v > 255:
			s[i] = 255
		default:
			s[i] = byte(v)
		}
	}
	return s
}

// noisySig perturbs a signature with per-cell Gaussian noise — the model
// of recompression/transform drift used by the recall tests.
func noisySig(rng *rand.Rand, base Signature, sigma float64) Signature {
	var s Signature
	for i := range s {
		v := float64(base[i]) + sigma*rng.NormFloat64()
		switch {
		case v < 0:
			s[i] = 0
		case v > 255:
			s[i] = 255
		default:
			s[i] = byte(v)
		}
	}
	return s
}

func TestKernelDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	slab := make([]byte, SigBytes*64)
	rng.Read(slab)
	for i := 0; i < 64; i++ {
		q := randomSig(rng)
		want := sadNaive(slab, i*SigBytes, &q)
		if got := sad64(slab, i*SigBytes, &q); got != want {
			t.Fatalf("sad64 = %d, naive = %d at %d", got, want, i)
		}
		if got := sad64Early(slab, i*SigBytes, &q, ^uint32(0)); got != want {
			t.Fatalf("sad64Early(no limit) = %d, naive = %d at %d", got, want, i)
		}
		// With the limit below the true distance the early path may stop
		// short, but must still report a value exceeding the limit.
		if want > 0 {
			if got := sad64Early(slab, i*SigBytes, &q, want-1); got <= want-1 {
				t.Fatalf("sad64Early(limit %d) = %d, want > limit", want-1, got)
			}
		}
	}
}

func TestDihedralVariantsAreClosedGroup(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := randomSig(rng)
	vars := s.Variants()
	if vars[0] != s {
		t.Fatal("variant 0 is not the identity")
	}
	// All 8 variants are distinct for a generic signature, and every
	// variant's variant set is the same set (group closure) — which is what
	// makes query-side probing equivalent to canonicalization.
	set := map[Signature]bool{}
	for _, v := range vars {
		set[v] = true
	}
	if len(set) != 8 {
		t.Fatalf("expected 8 distinct variants, got %d", len(set))
	}
	for _, v := range vars {
		for _, vv := range v.Variants() {
			if !set[vv] {
				t.Fatal("dihedral variants are not closed under composition")
			}
		}
	}
}

func TestIndexAddLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ix := New()
	sigs := make([]Signature, 200)
	for i := range sigs {
		sigs[i] = randomSig(rng)
		ix.Add(fmt.Sprintf("id-%03d", i), sigs[i])
	}
	if ix.Len() != 200 {
		t.Fatalf("Len = %d, want 200", ix.Len())
	}
	for i := 0; i < 200; i += 17 {
		id := fmt.Sprintf("id-%03d", i)
		got, ok := ix.Get(id)
		if !ok || got != sigs[i] {
			t.Fatalf("Get(%s) = %v, %v", id, got, ok)
		}
		res := ix.Lookup(sigs[i], 3)
		if len(res) == 0 || res[0].ID != id || res[0].Distance != 0 {
			t.Fatalf("Lookup(%s) top-1 = %+v", id, res)
		}
	}
	// Replacing an ID must move it to the new signature's bucket.
	ns := randomSig(rng)
	ix.Add("id-000", ns)
	if ix.Len() != 200 {
		t.Fatalf("Len after replace = %d, want 200", ix.Len())
	}
	res := ix.Lookup(ns, 1)
	if len(res) != 1 || res[0].ID != "id-000" || res[0].Distance != 0 {
		t.Fatalf("Lookup after replace = %+v", res)
	}
}

// TestLookupManyIdenticalCopies stores one signature many times (an image
// uploaded again and again) and checks the lookup still answers with the
// first-added copies at distance 0 once its top-k fills at distance 0.
func TestLookupManyIdenticalCopies(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ix := New()
	for i := 0; i < 100; i++ {
		ix.Add(fmt.Sprintf("other-%03d", i), randomSig(rng))
	}
	dup := randomSig(rng)
	for i := 0; i < 500; i++ {
		ix.Add(fmt.Sprintf("copy-%03d", i), dup)
	}
	for _, k := range []int{1, 3} {
		for name, res := range map[string][]Result{
			"Lookup":      ix.Lookup(dup, k),
			"LookupPlain": ix.LookupPlain(dup, k),
		} {
			if len(res) != k {
				t.Fatalf("%s k=%d: %d results, want %d", name, k, len(res), k)
			}
			for i, r := range res {
				if want := fmt.Sprintf("copy-%03d", i); r.ID != want || r.Distance != 0 {
					t.Fatalf("%s k=%d: result %d = %+v, want %s at distance 0", name, k, i, r, want)
				}
			}
		}
	}
}

// maxCopiesSlowdown bounds how much slower a lookup of a signature stored
// manyCopies times may be than one stored fewCopies times. On a 2-vCPU
// x86-64 host a lookup that scans every copy measured 86x slower at these
// sizes, and one that stops at the first exact match 0.9-1.2x.
const (
	fewCopies         = 16
	manyCopies        = 16384
	maxCopiesSlowdown = 4
)

// TestLookupCostIndependentOfCopies holds the upload dedup lookup to a cost
// that does not grow with the copies already stored: every upload runs
// Lookup(sig, 1) first, so an image uploaded n times must not make the next
// upload O(n). Best of three interleaved runs per side.
func TestLookupCostIndependentOfCopies(t *testing.T) {
	lookupWithCopies := func(copies int) func(*testing.B) {
		ix := New()
		sig := randomSig(rand.New(rand.NewSource(22)))
		for i := 0; i < copies; i++ {
			ix.Add(fmt.Sprintf("copy-%05d", i), sig)
		}
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ix.Lookup(sig, 1)
			}
		}
	}
	res := benchgate.Best(t, 3, lookupWithCopies(fewCopies), lookupWithCopies(manyCopies))
	few, many := res[0].NsPerOp(), res[1].NsPerOp()
	slowdown := float64(many) / float64(few)
	t.Logf("lookup of a signature stored %d times: %dns; %d times: %dns (%.2fx)", fewCopies, few, manyCopies, many, slowdown)
	if slowdown > maxCopiesSlowdown {
		t.Fatalf("lookup %.1fx slower with %d stored copies than with %d, want <= %dx", slowdown, manyCopies, fewCopies, maxCopiesSlowdown)
	}
}

func TestScanIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ix := New()
	type ref struct {
		id  string
		sig Signature
	}
	refs := make([]ref, 500)
	for i := range refs {
		refs[i] = ref{fmt.Sprintf("id-%04d", i), randomSig(rng)}
		ix.Add(refs[i].id, refs[i].sig)
	}
	for trial := 0; trial < 20; trial++ {
		q := randomSig(rng)
		got := ix.Scan(q, 10)
		// Brute-force reference over the raw signature list.
		best := make([]Result, 0, 10)
		for _, r := range refs {
			var d uint32
			for i := range q {
				d += absDiff(r.sig[i], q[i])
			}
			best = append(best, Result{ID: r.id, Distance: d})
		}
		top := newTopK(10)
		for _, r := range best {
			top.insert(r.ID, r.Distance)
		}
		want := top.results()
		if len(got) != len(want) {
			t.Fatalf("Scan returned %d results, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i].Distance != want[i].Distance {
				t.Fatalf("trial %d rank %d: Scan distance %d, want %d", trial, i, got[i].Distance, want[i].Distance)
			}
		}
	}
}

func TestLookupRecallClustered(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ix := New()
	const bases, variants = 500, 16
	baseSigs := make([]Signature, bases)
	ids := make([]string, 0, bases*variants)
	sigs := make([]Signature, 0, bases*variants)
	for b := range baseSigs {
		baseSigs[b] = randomSig(rng)
		for v := 0; v < variants; v++ {
			ids = append(ids, fmt.Sprintf("img-%04d-%02d", b, v))
			sigs = append(sigs, noisySig(rng, baseSigs[b], 4))
		}
	}
	ix.AddBatch(ids, sigs)
	if ix.Len() != bases*variants {
		t.Fatalf("Len = %d, want %d", ix.Len(), bases*variants)
	}
	const k = 10
	var recall float64
	const queries = 100
	for q := 0; q < queries; q++ {
		query := noisySig(rng, baseSigs[rng.Intn(bases)], 4)
		truth := ix.Scan(query, k)
		ann := ix.LookupPlain(query, k)
		kth := truth[len(truth)-1].Distance
		hits := 0
		for _, r := range ann {
			if r.Distance <= kth {
				hits++
			}
		}
		recall += float64(hits) / float64(k)
	}
	recall /= queries
	if recall < 0.9 {
		t.Fatalf("recall@10 = %.3f, want >= 0.9", recall)
	}
}

func TestConcurrentAddLookup(t *testing.T) {
	ix := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < 200; i++ {
				sig := randomSig(rng)
				if w%2 == 0 {
					ix.Add(fmt.Sprintf("w%d-%03d", w, i), sig)
				} else {
					ix.Lookup(sig, 5)
					ix.Scan(sig, 5)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := ix.Len(); n != 4*200 {
		t.Fatalf("Len = %d, want %d", n, 4*200)
	}
}
