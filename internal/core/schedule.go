package core

import (
	"puppies/internal/keys"
	"puppies/internal/parallel"
)

// regionRowGrain is the parallel chunk size for region loops, in
// (channel, block-row) units. Chunk boundaries depend only on the region
// size, so results are deterministic at any worker count.
const regionRowGrain = 4

// regionSchedule is one region's key schedule. Lemma III.1 recovers a block
// exactly only when the receiver subtracts the delta the sender added: the
// same pair, the same original-grid block index k and, for §IV-D
// multi-matrix regions, the same 64-block stripe. Encryption, decryption
// and shadow generation all walk a region through one schedule, so the
// three cannot disagree on any of these.
type regionSchedule struct {
	scheme *Scheme
	rp     *RegionParams
	wins   []compWindow
	// bw, bh is the region's block size in the stored image; baseBW is the
	// width of the original region grid that k indexes.
	bw, bh, baseBW int
	// pairs has one entry per AllKeyIDs stripe, nil where the key is not
	// held; tables[i] is pairs[i]'s AC delta table.
	pairs  []*keys.Pair
	tables []acDeltas
}

// newRegionSchedule builds the schedule of region rp in an image of the
// given channels and sampling (as in PublicData.Sampling). pairs holds one
// entry per rp.AllKeyIDs(), nil where the key is not held.
func newRegionSchedule(rp *RegionParams, pairs []*keys.Pair, samp []CompSampling, channels int) (*regionSchedule, error) {
	sch, err := NewScheme(Params{Variant: rp.Variant, MR: rp.MR, K: rp.K, Wrap: rp.Wrap})
	if err != nil {
		return nil, err
	}
	_, _, bw, bh := rp.ROI.Blocks()
	rs := &regionSchedule{
		scheme: sch, rp: rp, wins: regionWindows(samp, channels, rp.ROI),
		bw: bw, bh: bh, baseBW: rp.baseBW(),
		pairs: pairs, tables: make([]acDeltas, len(pairs)),
	}
	// The AC delta at a zigzag position is the same in every block, so the
	// range-matrix modulo chain runs once per stripe pair, not once per
	// coefficient.
	for i, p := range pairs {
		if p != nil {
			rs.tables[i] = sch.acDeltaTable(p)
		}
	}
	return rs, nil
}

// heldPairs resolves a region's stripe keys against a receiver's key set:
// one entry per rp.AllKeyIDs(), nil where the key is missing, and the
// number of keys held.
func heldPairs(rp *RegionParams, pairs map[string]*keys.Pair) ([]*keys.Pair, int) {
	ids := rp.AllKeyIDs()
	out := make([]*keys.Pair, len(ids))
	held := 0
	for i, id := range ids {
		if out[i] = pairs[id]; out[i] != nil {
			held++
		}
	}
	return out, held
}

// stripe returns the index of the pair protecting original-grid block k
// in a region cycling n pairs (§IV-D: pairs cycle every 64-block group).
func stripe(k, n int) int { return (k / keys.MatrixLen) % n }

// blockVisit is one block of a region walk: component ci's block at
// component-grid position (cbx, cby), its original-grid key index k, and
// its stripe's pair and AC delta table.
type blockVisit struct {
	ci, cbx, cby int
	k            int
	pair         *keys.Pair
	tbl          *acDeltas
}

// walkRegion calls visit for every block of the schedule's windows whose
// stripe key is held. Blocks run in (channel, block-row) chunks of
// regionRowGrain; each chunk gets its own zero T, and the chunks' results
// come back in chunk order. Within a chunk blocks are visited in (channel,
// row, column) order, so merging the results left to right reproduces the
// serial walk's order at any worker count. Subsampled chroma contributes its
// (smaller) native window rows, each block keyed by its co-located luma
// block; on 4:4:4 images every window equals the luma rect.
func walkRegion[T any](rs *regionSchedule, visit func(out *T, v blockVisit)) []*T {
	// Row unit r belongs to the channel ci with offs[ci] <= r < offs[ci+1].
	offs := make([]int, len(rs.wins)+1)
	for ci, w := range rs.wins {
		offs[ci+1] = offs[ci] + w.cbh
	}
	base := rs.rp
	return parallel.Map(offs[len(rs.wins)], regionRowGrain, func(lo, hi int) *T {
		out := new(T)
		ci := 0
		for r := lo; r < hi; r++ {
			for offs[ci+1] <= r {
				ci++
			}
			w, wy := &rs.wins[ci], r-offs[ci]
			for wx := 0; wx < w.cbw; wx++ {
				lbx, lby := w.lumaBlock(wx, wy)
				k := (base.BaseBY+lby)*rs.baseBW + base.BaseBX + lbx
				pi := stripe(k, len(rs.pairs))
				if rs.pairs[pi] == nil {
					continue // stripe key not held: the block stays perturbed
				}
				visit(out, blockVisit{ci: ci, cbx: w.cbx0 + wx, cby: w.cby0 + wy, k: k, pair: rs.pairs[pi], tbl: &rs.tables[pi]})
			}
		}
		return out
	})
}
