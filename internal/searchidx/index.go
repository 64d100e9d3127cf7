package searchidx

import (
	"sort"
	"sync"

	"puppies/internal/parallel"
)

// Index is the in-memory ANN structure: signatures live in flat contiguous
// per-segment slabs (64-byte strides, cache-line aligned reads), bucketed by
// a coarse-quantized 16-cell prefix of the signature. Lookups gather
// candidates from multi-probed buckets and re-rank them exactly with the
// SAD kernel; the segment RW locks mean concurrent lookups never block each
// other and an insert stalls only 1/numSegments of the key space.
type Index struct {
	segs [numSegments]segment

	// dir is the bucket directory, sharded by the high bits of the bucket
	// key (not by image ID like the slabs) so a probe touches one small map
	// per key instead of one map per segment per key — the map-access cost
	// of a lookup drops by numSegments x. Entries are packed (segment,
	// position) references into the slabs.
	dir [numDirShards]dirShard

	// persist, when non-nil, journals every Add for crash recovery between
	// snapshots (see snapshot.go).
	persist *persister
}

const (
	// numSegments shards the index by image ID. Power of two so the
	// segment pick is a mask.
	numSegments = 16

	// numDirShards shards the bucket directory by bucket-key high bits.
	numDirShards = 16

	// segShift packs a candidate reference as segment<<segShift | position;
	// 28 bits of position bound a segment at ~268M signatures, far past the
	// 10^6-scale design point.
	segShift = 28

	// keyCells is the number of key features folded into a bucket key: the
	// 8x8 grid collapsed to 4x4 quads (each the mean of a 2x2 cell block),
	// 1 bit each -> 16-bit key. Averaging quads instead of subsampling
	// single cells roughly halves the per-feature drift, which is what
	// keeps heavy transform drift (scale, crop, small-angle rotate) from
	// flipping key bits past the multi-probe horizon.
	keyCells = 16

	// maxProbes bounds the multi-probe expansion per lookup orientation.
	maxProbes = 96

	// probeDelta is how close (in byte units) a quad must sit to the
	// quantization boundary for the flipped bucket to be probed too. Quad
	// drift under the supported transforms is mostly within ~10 byte
	// units, so 20 covers the crossing risk band; cells beyond it flip
	// with low probability, and the greedy cheapest-first expansion
	// spends the probe budget on the likeliest crossings anyway.
	probeDelta = 20

	// orientationPrior is a flat distance penalty added to matches found
	// under a non-identity dihedral orientation of the query. Uploads are
	// overwhelmingly stored the way they are queried; a rotated/flipped
	// interpretation should only win when it is *clearly* closer, not on a
	// coin-flip margin between two near-tied neighbors. Genuine lossless
	// rotations still match easily — their variant distance sits far below
	// the inter-image floor — while the prior suppresses the dihedral
	// crosstalk near-ties that otherwise dominate the residual error of the
	// transform-invariance property.
	orientationPrior = 150

	// escalateDistance is the cascade boundary: when the probe phase finds
	// no candidate at least this close, the lookup escalates to an exact
	// pass. Near-duplicate matches (recompression, requantization, mild
	// scaling) land far below it, so the common path stays sublinear;
	// heavy re-framing transforms (crop, arbitrary-angle rotation) drift
	// past the bucket quantization and are recovered by the exact tier
	// instead of silently returning a wrong neighbor.
	escalateDistance = 700
)

// levelThreshold cuts a quad value into 2 levels. The signature is
// z-normalized around 128, so the median cut gives balanced occupancy; one
// boundary per quad keeps the crossing probability (and therefore the
// multi-probe burden) low.
const levelThreshold = 128

// quadValues collapses the 8x8 signature to its 4x4 quad means, the
// features the bucket key quantizes. Integer math: each quad is the exact
// mean of 4 cells, in [0,255].
func quadValues(s *Signature) [keyCells]int {
	var out [keyCells]int
	for qy := 0; qy < gridDim/2; qy++ {
		for qx := 0; qx < gridDim/2; qx++ {
			i := (2*qy)*gridDim + 2*qx
			sum := int(s[i]) + int(s[i+1]) + int(s[i+gridDim]) + int(s[i+gridDim+1])
			out[qy*(gridDim/2)+qx] = (sum + 2) / 4
		}
	}
	return out
}

func level(v int) uint32 {
	if v < levelThreshold {
		return 0
	}
	return 1
}

type segment struct {
	mu   sync.RWMutex
	ids  []string
	sigs []byte // SigBytes * len(ids), flat
	byID map[string]uint32
}

// dirShard is one lock's worth of the bucket directory. Lock order is
// always segment before directory: writers hold their segment lock across
// the directory update (so a replace's rebucketing is atomic), and lookups
// acquire every segment read-lock up front before touching the directory.
type dirShard struct {
	mu      sync.RWMutex
	buckets map[uint32][]uint32 // bucket key -> packed (segment, position)
}

func pack(si int, pos uint32) uint32 { return uint32(si)<<segShift | pos }

// New returns an empty index.
func New() *Index {
	ix := &Index{}
	for i := range ix.segs {
		ix.segs[i].byID = make(map[string]uint32)
	}
	for i := range ix.dir {
		ix.dir[i].buckets = make(map[uint32][]uint32)
	}
	return ix
}

// fnv32a hashes an ID onto a segment.
func fnv32a(s string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}

func segIdx(id string) int {
	return int(fnv32a(id) & (numSegments - 1))
}

func (ix *Index) dirFor(key uint32) *dirShard {
	return &ix.dir[key>>12&(numDirShards-1)]
}

// bucketKey folds the signature's quantized quad means into the 32-bit
// bucket key.
func bucketKey(s *Signature) uint32 {
	quads := quadValues(s)
	var key uint32
	for c, v := range quads {
		key |= level(v) << c
	}
	return key
}

// Add inserts (or replaces) one signature. Safe for concurrent use with
// lookups and other adds.
func (ix *Index) Add(id string, sig Signature) {
	ix.add(segIdx(id), id, sig)
	if ix.persist != nil {
		ix.persist.record(id, sig)
	}
}

func (ix *Index) add(si int, id string, sig Signature) {
	sg := &ix.segs[si]
	key := bucketKey(&sig)
	sg.mu.Lock()
	defer sg.mu.Unlock()
	if pos, ok := sg.byID[id]; ok {
		old := posSig(sg.sigs, int(pos))
		oldKey := bucketKey(old)
		copy(sg.sigs[int(pos)*SigBytes:], sig[:])
		if oldKey != key {
			ix.rebucket(pack(si, pos), oldKey, key)
		}
		return
	}
	pos := uint32(len(sg.ids))
	sg.ids = append(sg.ids, id)
	sg.sigs = append(sg.sigs, sig[:]...)
	sg.byID[id] = pos
	ds := ix.dirFor(key)
	ds.mu.Lock()
	ds.buckets[key] = append(ds.buckets[key], pack(si, pos))
	ds.mu.Unlock()
}

// rebucket moves a packed reference between bucket keys, taking both
// directory shard locks in index order so concurrent rebuckets can't
// deadlock.
func (ix *Index) rebucket(pk, oldKey, newKey uint32) {
	ia := int(oldKey >> 12 & (numDirShards - 1))
	ib := int(newKey >> 12 & (numDirShards - 1))
	a, b := &ix.dir[ia], &ix.dir[ib]
	if ia == ib {
		a.mu.Lock()
		a.buckets[oldKey] = removePos(a.buckets[oldKey], pk)
		a.buckets[newKey] = append(a.buckets[newKey], pk)
		a.mu.Unlock()
		return
	}
	lo, hi := a, b
	if ia > ib {
		lo, hi = hi, lo
	}
	lo.mu.Lock()
	hi.mu.Lock()
	a.buckets[oldKey] = removePos(a.buckets[oldKey], pk)
	b.buckets[newKey] = append(b.buckets[newKey], pk)
	hi.mu.Unlock()
	lo.mu.Unlock()
}

func removePos(list []uint32, pos uint32) []uint32 {
	for i, p := range list {
		if p == pos {
			list[i] = list[len(list)-1]
			return list[:len(list)-1]
		}
	}
	return list
}

func posSig(sigs []byte, pos int) *Signature {
	return (*Signature)(sigs[pos*SigBytes : pos*SigBytes+SigBytes])
}

// AddBatch bulk-loads many signatures, parallelizing across segments
// through internal/parallel (items are pre-grouped by segment so workers
// never contend on a lock).
func (ix *Index) AddBatch(ids []string, sigs []Signature) {
	if len(ids) != len(sigs) || len(ids) == 0 {
		return
	}
	groups := make([][]int, numSegments)
	for i, id := range ids {
		s := fnv32a(id) & (numSegments - 1)
		groups[s] = append(groups[s], i)
	}
	parallel.For(numSegments, 1, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			for _, i := range groups[s] {
				ix.add(s, ids[i], sigs[i])
			}
		}
	})
	if ix.persist != nil {
		for i := range ids {
			ix.persist.record(ids[i], sigs[i])
		}
	}
}

// Len reports the number of indexed signatures.
func (ix *Index) Len() int {
	n := 0
	for i := range ix.segs {
		sg := &ix.segs[i]
		sg.mu.RLock()
		n += len(sg.ids)
		sg.mu.RUnlock()
	}
	return n
}

// Get returns the stored signature for an ID.
func (ix *Index) Get(id string) (Signature, bool) {
	sg := &ix.segs[segIdx(id)]
	sg.mu.RLock()
	defer sg.mu.RUnlock()
	pos, ok := sg.byID[id]
	if !ok {
		return Signature{}, false
	}
	return *posSig(sg.sigs, int(pos)), true
}

// Result is one k-NN answer: the image ID and its L1 signature distance
// (0 = identical signature; the scale is bytes summed over 64 cells).
type Result struct {
	ID       string `json:"id"`
	Distance uint32 `json:"distance"`
}

// Lookup answers k-NN over the index for all eight dihedral orientations of
// the query — the serving-path entry point, invariant to the lossless
// rotate/flip transforms. It returns up to k results: once a confident
// match is in hand the probe phase does not escalate to a full scan just to
// pad the list with far-away candidates. Distance per candidate is the minimum over
// orientations, with non-identity orientations carrying orientationPrior
// so a rotated interpretation only wins when it is clearly closer.
func (ix *Index) Lookup(q Signature, k int) []Result {
	vars := q.Variants()
	return ix.lookup(vars[:], k)
}

// LookupPlain answers k-NN for the query's stored orientation only — the
// like-for-like counterpart of Scan used by benchmarks and recall
// measurement.
func (ix *Index) LookupPlain(q Signature, k int) []Result {
	return ix.lookup([]Signature{q}, k)
}

// lookup gathers bucket candidates for every query orientation and
// re-ranks them exactly. Buckets are disjoint per orientation (a stored
// signature lives in exactly one bucket), so duplicates only arise across
// orientations and are merged by keeping the minimum distance. When the
// probe phase yields no confident match (best distance above
// escalateDistance) the lookup escalates to the exact tier — a full SAD
// pass minimized over the query orientations — trading the sublinear path
// for guaranteed-correct neighbors on heavily transformed queries.
func (ix *Index) lookup(variants []Signature, k int) []Result {
	if k <= 0 {
		return nil
	}
	top := ix.probePhase(variants, k)
	if len(top.res) == 0 || top.res[0].Distance > escalateDistance {
		top = ix.exactPhase(variants, k)
	}
	return top.results()
}

// probePhase is the sublinear candidate tier of lookup. All segment read
// locks are taken up front (candidates from one bucket span segments), then
// each probed key costs a single directory access.
func (ix *Index) probePhase(variants []Signature, k int) *topK {
	top := newTopK(k)
	var seen map[uint32]uint32
	if len(variants) > 1 {
		seen = make(map[uint32]uint32, 64)
	}
	for si := range ix.segs {
		ix.segs[si].mu.RLock()
	}
	defer func() {
		for si := range ix.segs {
			ix.segs[si].mu.RUnlock()
		}
	}()
	for vi := range variants {
		q := &variants[vi]
		var prior uint32
		if vi > 0 {
			prior = orientationPrior
		}
		for _, key := range probeKeys(q) {
			ds := ix.dirFor(key)
			ds.mu.RLock()
			for _, pk := range ds.buckets[key] {
				sg := &ix.segs[pk>>segShift]
				pos := pk & (1<<segShift - 1)
				limit := top.limit()
				if limit == 0 {
					// A full top-k at distance 0 is final: nothing
					// scores below 0, so scanning on (an upload of an
					// image stored many times) would cost O(copies).
					ds.mu.RUnlock()
					return top
				}
				if limit != ^uint32(0) {
					if limit < prior {
						continue
					}
					limit -= prior
				}
				d := sad64Early(sg.sigs, int(pos)*SigBytes, q, limit)
				if d > limit {
					continue
				}
				d += prior
				if seen != nil {
					if prev, ok := seen[pk]; ok && prev <= d {
						continue
					}
					seen[pk] = d
					top.insertOrImprove(sg.ids[pos], d)
					continue
				}
				top.insert(sg.ids[pos], d)
			}
			ds.mu.RUnlock()
		}
	}
	return top
}

// exactPhase is the escalation tier: a full pass over every stored
// signature, each scored by its minimum distance over the query
// orientations.
func (ix *Index) exactPhase(variants []Signature, k int) *topK {
	top := newTopK(k)
	for si := range ix.segs {
		sg := &ix.segs[si]
		sg.mu.RLock()
		n := len(sg.ids)
		for pos := 0; pos < n; pos++ {
			limit := top.limit()
			best := ^uint32(0)
			for vi := range variants {
				lim := limit
				var prior uint32
				if vi > 0 {
					prior = orientationPrior
				}
				if lim != ^uint32(0) {
					if lim < prior {
						continue
					}
					lim -= prior
				}
				d := sad64Early(sg.sigs, pos*SigBytes, &variants[vi], lim)
				if d > lim {
					continue
				}
				if d+prior < best {
					best = d + prior
				}
			}
			if best <= limit {
				top.insert(sg.ids[pos], best)
			}
		}
		sg.mu.RUnlock()
	}
	return top
}

// Scan is the exact brute-force k-NN: a full SAD pass over every stored
// signature. It is the recall ground truth and the baseline the indexed
// lookup is gated against (>= 50x at 10^5).
func (ix *Index) Scan(q Signature, k int) []Result {
	if k <= 0 {
		return nil
	}
	top := newTopK(k)
	for si := range ix.segs {
		sg := &ix.segs[si]
		sg.mu.RLock()
		n := len(sg.ids)
		for pos := 0; pos < n; pos++ {
			limit := top.limit()
			d := sad64Early(sg.sigs, pos*SigBytes, &q, limit)
			if d <= limit {
				top.insert(sg.ids[pos], d)
			}
		}
		sg.mu.RUnlock()
	}
	return top.results()
}

// probeKeys returns the bucket keys to visit for one query orientation:
// the primary key first, then multi-probe variants flipping the key quads
// that sit within probeDelta of a quantization boundary, cheapest flips
// first, capped at maxProbes.
func probeKeys(s *Signature) []uint32 {
	quads := quadValues(s)
	var key uint32
	type flip struct {
		mask uint32
		cost int
	}
	var flips []flip
	for c, v := range quads {
		key |= level(v) << c
		cost := v - levelThreshold
		if cost < 0 {
			cost = levelThreshold - 1 - v
		}
		if cost <= probeDelta {
			flips = append(flips, flip{1 << c, cost})
		}
	}
	sort.Slice(flips, func(i, j int) bool { return flips[i].cost < flips[j].cost })
	keys := make([]uint32, 1, maxProbes)
	keys[0] = key
	for _, f := range flips {
		n := len(keys)
		for j := 0; j < n && len(keys) < maxProbes; j++ {
			keys = append(keys, keys[j]^f.mask)
		}
		if len(keys) >= maxProbes {
			break
		}
	}
	return keys
}

// topK is a bounded best-k accumulator: a sorted insertion slice, cheap for
// the small k of interactive search, with limit() feeding the SAD early
// exit.
type topK struct {
	k   int
	res []Result
}

func newTopK(k int) *topK {
	return &topK{k: k, res: make([]Result, 0, k)}
}

// limit is the worst distance that could still matter: the current k-th
// best once the set is full, otherwise unbounded.
func (t *topK) limit() uint32 {
	if len(t.res) < t.k {
		return ^uint32(0)
	}
	return t.res[len(t.res)-1].Distance
}

func (t *topK) insert(id string, d uint32) {
	if len(t.res) == t.k && d >= t.res[len(t.res)-1].Distance {
		return
	}
	i := sort.Search(len(t.res), func(i int) bool { return t.res[i].Distance > d })
	if len(t.res) < t.k {
		t.res = append(t.res, Result{})
	}
	copy(t.res[i+1:], t.res[i:])
	t.res[i] = Result{ID: id, Distance: d}
}

// insertOrImprove replaces an existing entry for id if the new distance is
// better; used on the multi-orientation path where the same image can
// surface from two orientations.
func (t *topK) insertOrImprove(id string, d uint32) {
	for i := range t.res {
		if t.res[i].ID == id {
			if d >= t.res[i].Distance {
				return
			}
			copy(t.res[i:], t.res[i+1:])
			t.res = t.res[:len(t.res)-1]
			break
		}
	}
	t.insert(id, d)
}

func (t *topK) results() []Result {
	return t.res
}
