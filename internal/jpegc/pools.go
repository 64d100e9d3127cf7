package jpegc

import (
	"sync"

	"puppies/internal/dct"
	"puppies/internal/parallel"
)

// Scratch pools for the entropy-coding hot path. Contract: everything a
// Get returns is fully reset (zero counts, zero length), so callers never
// observe another image's data. TestPoolsResetPoisonedBuffers enforces this
// by poisoning buffers before returning them.

var (
	// byteBufPool recycles the large, short-lived byte buffers of the scan
	// path: the decoder's whole-scan entropy buffer and the encoder's
	// staged bit-stream output.
	byteBufPool parallel.SlicePool[byte]
	// blockSlabPool recycles whole coefficient grids (the dominant
	// allocation of a decode: one slab per component, sized in MCU
	// multiples). Slabs are pointer-free, so pooling them removes both the
	// mallocs and the GC sweep work of decode-heavy paths like upload
	// validation.
	blockSlabPool parallel.SlicePool[dct.Block]
	// maskSlabPool recycles the encoder's per-block nonzero-AC masks (one
	// uint64 per stored block).
	maskSlabPool parallel.SlicePool[uint64]
	// stripPool recycles FromStdImage's pixel strips (three 8-row float32
	// planes, one strip per block row in flight), taken uncleared: each
	// block row converts every sample it reads before reading it.
	stripPool parallel.SlicePool[float32]
)

// getGrid returns a coefficient grid of n blocks and whether it is zeroed.
// A slab recycled through blockSlabPool keeps whatever a previous image
// left in it: only for a caller that writes every block before anything
// reads it (TestPoolsResetPoisonedBuffers holds each such caller to that).
// A fresh slab comes zeroed from the allocator, so a caller that zeroes
// blocks before filling them can skip that.
func getGrid(n int) ([]dct.Block, bool) {
	if s := blockSlabPool.GetEmpty(0); cap(s) >= n {
		return s[:n], false
	}
	return make([]dct.Block, n), true
}

// byteBufCap is the smallest capacity a byte buffer is handed out with.
const byteBufCap = 1 << 16

// symbolHist accumulates DC and AC symbol frequencies for one table pair
// (index 0 = luminance, 1 = chrominance) during the optimized-tables
// statistics pass.
type symbolHist struct {
	dc, ac [2][256]int64
}

var histPool = sync.Pool{New: func() any { return &symbolHist{} }}

// getHist returns a zeroed histogram.
func getHist() *symbolHist {
	h := histPool.Get().(*symbolHist)
	h.dc = [2][256]int64{}
	h.ac = [2][256]int64{}
	return h
}

// putHist recycles a histogram obtained from getHist.
func putHist(h *symbolHist) { histPool.Put(h) }
