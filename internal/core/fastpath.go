package core

import (
	"puppies/internal/dct"
	"puppies/internal/keys"
	"puppies/internal/parallel"
)

// Hot-path support for the per-block perturbation loops: per-pair AC
// delta tables and pooled bitsets replacing the map-backed position sets on
// the decrypt and shadow paths.

// acDeltas is a per-pair AC perturbation table: Deltas[zz] is the delta at
// zigzag position zz, and Active lists the positions with nonzero delta in
// ascending order — for -C/-Z at K perturbed coefficients the block loop
// shrinks from 63 modulo chains to ~K table lookups.
type acDeltas struct {
	Deltas [dct.BlockLen]int32
	Active []uint8
}

// acDeltaTable materializes the AC delta table for one pair.
func (s *Scheme) acDeltaTable(pair *keys.Pair) acDeltas {
	var t acDeltas
	t.Active = make([]uint8, 0, dct.BlockLen-1)
	for zz := 1; zz < dct.BlockLen; zz++ {
		d := s.acDelta(pair, zz)
		t.Deltas[zz] = d
		if d != 0 {
			t.Active = append(t.Active, uint8(zz))
		}
	}
	return t
}

// posBitset is a region-shaped coefficient position set: one bit per
// (channel, region-local block, zigzag position). It replaces
// PosList.toSet's map on the decrypt/shadow hot paths — a test is two
// shifts and a mask instead of a map probe — and its backing array is
// pooled. Positions are stored with original-grid block indices (stable
// across PSP crops), so lookups rebase through the region's Base geometry;
// list entries outside the current window (cropped away) are dropped.
type posBitset struct {
	words                  []uint64
	bw, bh                 int
	baseBW, baseBX, baseBY int
}

// bitsetPool backs every posBitset (64 bits per block).
var bitsetPool parallel.SlicePool[uint64]

// newPosBitset builds the set for a region schedule's window. A nil return
// means the empty set.
func newPosBitset(list PosList, rs *regionSchedule) *posBitset {
	if len(list) == 0 {
		return nil
	}
	channels := len(rs.wins)
	s := &posBitset{
		words:  bitsetPool.Get(channels * rs.bw * rs.bh),
		bw:     rs.bw,
		bh:     rs.bh,
		baseBW: rs.baseBW,
		baseBX: rs.rp.BaseBX,
		baseBY: rs.rp.BaseBY,
	}
	for _, p := range list {
		k := int(p.Block)
		bx := k%s.baseBW - s.baseBX
		by := k/s.baseBW - s.baseBY
		if int(p.Channel) >= channels || bx < 0 || bx >= s.bw || by < 0 || by >= s.bh {
			continue
		}
		word := (int(p.Channel)*s.bh+by)*s.bw + bx
		s.words[word] |= 1 << (p.Coeff & 63)
	}
	return s
}

// test reports whether (ci, k, zz) is in the set; k is an original-grid
// block index inside the window.
func (s *posBitset) test(ci, k, zz int) bool {
	if s == nil {
		return false
	}
	bx := k%s.baseBW - s.baseBX
	by := k/s.baseBW - s.baseBY
	word := (ci*s.bh+by)*s.bw + bx
	return s.words[word]&(1<<(zz&63)) != 0
}

// release returns the backing array to the pool.
func (s *posBitset) release() {
	if s != nil {
		bitsetPool.Put(s.words)
		s.words = nil
	}
}
