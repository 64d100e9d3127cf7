package jpegc

import (
	"sync"

	"puppies/internal/dct"
)

// Scratch pools for the entropy-coding hot path. Contract: everything a
// Get returns is fully reset (zero counts, zero length), so callers never
// observe another image's data. TestPoolsResetPoisonedBuffers enforces this
// by poisoning buffers before returning them.

// byteBufPool recycles the large, short-lived byte buffers of the scan
// path: the decoder's whole-scan entropy buffer and the encoder's staged
// bit-stream output.
var byteBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 1<<16)
		return &b
	},
}

// getByteBuf returns an empty byte buffer with nonzero capacity.
func getByteBuf() []byte {
	b := *byteBufPool.Get().(*[]byte)
	return b[:0]
}

// putByteBuf recycles a buffer obtained from getByteBuf. The caller must
// not retain any slice aliasing it.
func putByteBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	byteBufPool.Put(&b)
}

// blockSlabPool recycles whole coefficient grids (the dominant allocation
// of a decode: one slab per component, sized in MCU multiples). Slabs are
// pointer-free, so pooling them removes both the mallocs and the GC sweep
// work of decode-heavy paths like upload validation.
var blockSlabPool = sync.Pool{New: func() any { return new([]dct.Block) }}

// getBlockSlab returns a zeroed slab of n blocks, reusing pooled storage
// when a large enough slab is available.
func getBlockSlab(n int) []dct.Block {
	s := *blockSlabPool.Get().(*[]dct.Block)
	if cap(s) < n {
		return make([]dct.Block, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// putBlockSlab recycles a slab. The caller asserts sole ownership: nothing
// may alias the slab afterwards.
func putBlockSlab(s []dct.Block) {
	if cap(s) == 0 {
		return
	}
	s = s[:0]
	blockSlabPool.Put(&s)
}

// maskSlabPool recycles the encoder's per-block nonzero-AC masks (one
// uint64 per stored block), like blockSlabPool does for coefficient grids.
var maskSlabPool = sync.Pool{New: func() any { return new([]uint64) }}

// getMaskSlab returns a zeroed slab of n masks, reusing pooled storage when
// a large enough slab is available.
func getMaskSlab(n int) []uint64 {
	s := *maskSlabPool.Get().(*[]uint64)
	if cap(s) < n {
		return make([]uint64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// putMaskSlab recycles a slab obtained from getMaskSlab.
func putMaskSlab(s []uint64) {
	if cap(s) == 0 {
		return
	}
	s = s[:0]
	maskSlabPool.Put(&s)
}

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
