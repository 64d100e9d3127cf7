package jpegc

import (
	"bytes"
	"sync"
	"testing"

	"puppies/internal/benchgate"
	"puppies/internal/dct"
)

// TestPoolsResetPoisonedBuffers enforces the pools.go contract: whatever
// state an object is returned in, the next Get hands out fully reset data,
// and a grid taken uncleared (getGrid) ends up fully overwritten.
func TestPoolsResetPoisonedBuffers(t *testing.T) {
	// Byte buffers: poison the contents, recycle, and check a fresh Get is
	// empty — stale bytes must only ever be reachable by appends that
	// overwrite them.
	b := byteBufPool.GetEmpty(byteBufCap)
	b = append(b, 0xde, 0xad, 0xbe, 0xef)
	byteBufPool.Put(b)
	for i := 0; i < 4; i++ {
		got := byteBufPool.GetEmpty(byteBufCap)
		if len(got) != 0 {
			t.Fatalf("recycled byte buffer has length %d, want 0", len(got))
		}
		got = append(got, byte(i))
		if got[0] != byte(i) {
			t.Fatalf("append after recycle read back %#x, want %#x", got[0], i)
		}
		byteBufPool.Put(got)
	}

	// Histograms: poison every counter, recycle, and check the next Get is
	// zeroed; a leak here would silently skew optimized Huffman tables.
	h := getHist()
	for ti := range h.dc {
		for s := range h.dc[ti] {
			h.dc[ti][s] = -1
			h.ac[ti][s] = 1 << 40
		}
	}
	putHist(h)
	for i := 0; i < 4; i++ {
		got := getHist()
		for ti := range got.dc {
			for s := range got.dc[ti] {
				if got.dc[ti][s] != 0 || got.ac[ti][s] != 0 {
					t.Fatalf("recycled histogram not zeroed: dc[%d][%d]=%d ac[%d][%d]=%d",
						ti, s, got.dc[ti][s], ti, s, got.ac[ti][s])
				}
			}
		}
		putHist(got)
	}

	// Mask slabs: poison every mask, recycle, and check the next Get of a
	// smaller slab is zeroed.
	m := maskSlabPool.Get(64)
	for i := range m {
		m[i] = ^uint64(0)
	}
	maskSlabPool.Put(m)
	for i := 0; i < 4; i++ {
		got := maskSlabPool.Get(32)
		for j, v := range got {
			if v != 0 {
				t.Fatalf("recycled mask slab not zeroed: mask %d = %#x", j, v)
			}
		}
		maskSlabPool.Put(got)
	}

	// Block slabs: the same for coefficient grids.
	bs := blockSlabPool.Get(16)
	for i := range bs {
		for j := range bs[i] {
			bs[i][j] = -1
		}
	}
	blockSlabPool.Put(bs)
	for i := 0; i < 4; i++ {
		got := blockSlabPool.Get(8)
		for j := range got {
			if got[j] != (dct.Block{}) {
				t.Fatalf("recycled block slab not zeroed: block %d", j)
			}
		}
		blockSlabPool.Put(got)
	}

	// Grids: decode and FromPlanar take theirs from blockSlabPool without
	// clearing (getGrid), so hand them poisoned slabs and require the
	// images they build from clean ones, serially and chunked.
	planar := gradientPlanar(261, 187)
	ref, err := FromPlanar(planar, Options{Quality: 85})
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	if err := ref.Encode(&stream, EncodeOptions{Tables: TablesOptimized}); err != nil {
		t.Fatal(err)
	}
	for _, chunks := range []int{1, 3} {
		slabs, _ := poisonPools(ref.blockCount(), 3*dct.BlockSize*ref.W)
		got, err := decode(bytes.NewReader(stream.Bytes()), chunks)
		if err != nil {
			t.Fatalf("%d chunks: decode on poisoned grids: %v", chunks, err)
		}
		if !benchgate.Race && !slabs[&got.Comps[0].Blocks[0]] {
			t.Fatalf("%d chunks: decode did not take a poisoned grid", chunks)
		}
		assertCoeffEqual(t, ref, got)

		slabs, _ = poisonPools(ref.blockCount(), 3*dct.BlockSize*ref.W)
		fp, err := FromPlanar(planar, Options{Quality: 85})
		if err != nil {
			t.Fatal(err)
		}
		if !benchgate.Race && !slabs[&fp.Comps[0].Blocks[0]] {
			t.Fatal("FromPlanar did not take a poisoned grid")
		}
		assertCoeffEqual(t, ref, fp)
	}
}

// stripPoison fills poisoned strips: no 8-bit pixel converts to it.
const stripPoison = -1e6

// poisonPools empties the block-slab and strip pools, fills them with
// poisoned buffers big enough for an image of the given block count and
// strip length, and returns their first elements' addresses.
func poisonPools(blocks, strip int) (map[*dct.Block]bool, map[*float32]bool) {
	for cap(blockSlabPool.GetEmpty(0)) > 0 {
	}
	for cap(stripPool.GetEmpty(0)) > 0 {
	}
	slabs, strips := make(map[*dct.Block]bool), make(map[*float32]bool)
	for i := 0; i < 4; i++ {
		s := make([]dct.Block, 2*blocks)
		for j := range s {
			for k := range s[j] {
				s[j][k] = -1
			}
		}
		slabs[&s[0]] = true
		blockSlabPool.Put(s)

		f := make([]float32, 2*strip)
		for j := range f {
			f[j] = stripPoison
		}
		strips[&f[0]] = true
		stripPool.Put(f)
	}
	return slabs, strips
}

// TestPoolsConcurrentReuse hammers the byte-buffer pool from several
// goroutines, each poisoning its buffer before recycling, to catch reuse
// races the single-threaded poison test cannot see. Run under `make race`.
func TestPoolsConcurrentReuse(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b := byteBufPool.GetEmpty(byteBufCap)
				if len(b) != 0 {
					t.Errorf("goroutine %d: got buffer of length %d", g, len(b))
					return
				}
				for j := 0; j < 64; j++ {
					b = append(b, byte(g))
				}
				for j, v := range b {
					if v != byte(g) {
						t.Errorf("goroutine %d: buffer byte %d is %#x", g, j, v)
						return
					}
				}
				byteBufPool.Put(b)
			}
		}(g)
	}
	wg.Wait()
}
