package jpegc

import (
	"bytes"
	"image"
	"math/rand"
	"testing"
	"time"

	"puppies/internal/benchgate"
	"puppies/internal/dct"
)

// encodeAt encodes m with the scan cut into the given number of chunks.
func encodeAt(t *testing.T, m *Image, opts EncodeOptions, chunks int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.encode(&buf, opts, chunks); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// splicedFFs counts the chunk boundaries of an n-chunk restart-free emit
// of m under the Annex K tables that fall mid-byte where the byte spliced
// from the two chunks' bits is 0xFF, so the splice itself must stuff it.
func splicedFFs(t *testing.T, m *Image, n int) int {
	t.Helper()
	slab := maskSlabPool.Get(m.blockCount())
	defer maskSlabPool.Put(slab)
	masks, err := m.nonzeroMasks(slab)
	if err != nil {
		t.Fatal(err)
	}
	tables := tableSet{dcLum: StdDCLuminance, acLum: StdACLuminance, dcChrom: StdDCChrominance, acChrom: StdACChrominance}
	parts, err := m.emitScan(&tables, &masks, 0, n)
	defer func() {
		for c := range parts {
			byteBufPool.Put(parts[c].bits.buf)
		}
	}()
	if err != nil {
		t.Fatal(err)
	}
	// bit returns bit i of the concatenated, unstuffed chunk strings.
	bit := func(i int) byte {
		for c := range parts {
			if i < parts[c].nbits {
				return parts[c].bits.buf[i/8] >> (7 - i%8) & 1
			}
			i -= parts[c].nbits
		}
		return 1 // the final padding
	}
	found, off := 0, 0
	for c := 0; c < n-1; c++ {
		off += parts[c].nbits
		if off%8 == 0 {
			continue
		}
		var b byte
		for i := off - off%8; i < off-off%8+8; i++ {
			b = b<<1 | bit(i)
		}
		if b == 0xff {
			found++
		}
	}
	return found
}

// TestChunkedEncodeMatchesSerial holds the bit-spliced encode to the serial
// walk: at forced chunk counts 1-8, with and without restart intervals, in
// both table modes, every image encodes to the same bytes. The dense
// random images end blocks without an EOB (whose Annex K codes end in a
// 0-bit) and start them with long all-ones DC codes, so some chunk
// boundaries fall mid-byte on a spliced 0xFF, which the splice must stuff;
// the test requires it saw some.
func TestChunkedEncodeMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	share, err := FromPlanar(shareRender(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := Decode(bytes.NewReader(stdlibYCbCr(t, 131, 77, image.YCbCrSubsampleRatio420)))
	if err != nil {
		t.Fatal(err)
	}
	images := map[string]*Image{
		"share":      share,
		"dense-420":  denseImage(rng, 61, 45, 3, 2, 2),
		"dense-gray": denseImage(rng, 61, 45, 1, 1, 1),
		"stdlib-420": sub,
	}
	for name, img := range images {
		for _, tables := range []TableMode{TablesDefault, TablesOptimized} {
			for _, ri := range []int{0, 1, 5} {
				opts := EncodeOptions{Tables: tables, RestartInterval: ri}
				want := encodeAt(t, img, opts, 1)
				for n := 2; n <= 8; n++ {
					if got := encodeAt(t, img, opts, n); !bytes.Equal(got, want) {
						t.Errorf("%s tables=%d restart=%d: %d chunks wrote %d bytes, serial %d, contents differ",
							name, tables, ri, n, len(got), len(want))
					}
				}
			}
		}
	}

	stuffed := 0
	for i := 0; i < 100; i++ {
		img := denseImage(rng, 48, 32, 1+2*(i%2), 1, 1)
		want := encodeAt(t, img, EncodeOptions{}, 1)
		for n := 2; n <= 8; n++ {
			if got := encodeAt(t, img, EncodeOptions{}, n); !bytes.Equal(got, want) {
				t.Fatalf("random image %d at %d chunks: bytes differ from the serial walk", i, n)
			}
			stuffed += splicedFFs(t, img, n)
		}
	}
	t.Logf("%d chunk boundaries spliced a 0xFF byte", stuffed)
	if stuffed == 0 {
		t.Fatal("no chunk boundary spliced a 0xFF byte; the stuffing at a splice went untested")
	}
}

// hostileStream returns a grayscale stream whose restart-free scan no
// chunk of the chunked decode can synchronize on. Both Huffman tables give
// the code 01010101 to the symbol every block after the first uses (DC
// category 0, EOB), so from the third byte on the scan is 0x55 repeated.
// The first block's DC category 4 code and its 4 magnitude bits put every
// later block start at a bit offset of 4 mod 8, while a chunk starts on a
// byte and, reading 16-bit blocks, stays at 0 mod 8: its speculation
// decodes cleanly to the end and never meets a true block start, so each
// chunk after the first is decoded twice, once speculatively and once by
// the confirmed decode running past it.
func hostileStream(tb testing.TB) []byte {
	tb.Helper()
	// Canonical codes for lengths 2, 4, 6, 8, 8: 00, 0100, 010100,
	// 01010100, 01010101.
	var counts [maxCodeLength]byte
	counts[1], counts[3], counts[5], counts[7] = 1, 1, 1, 2
	tables := tableSet{
		dcLum: HuffmanSpec{Counts: counts, Values: []byte{1, 2, 3, 4, 0}},
		acLum: HuffmanSpec{Counts: counts, Values: []byte{0x01, 0x02, 0x03, 0x11, 0x00}},
	}
	img := &Image{W: 1024, H: 1024, Comps: []Component{{BlocksW: 128, BlocksH: 128, Quant: dct.StdLuminanceQuant}}}
	img.Comps[0].Blocks = make([]dct.Block, 128*128)
	for i := range img.Comps[0].Blocks {
		img.Comps[0].Blocks[i][0] = 8
	}
	masks := blockMasks{make([]uint64, len(img.Comps[0].Blocks))}
	var buf bytes.Buffer
	if err := writeMarkers(&buf, img, &tables, 0); err != nil {
		tb.Fatal(err)
	}
	hdr := buf.Len()
	if err := img.writeScan(&buf, &tables, &masks, 0, 1); err != nil {
		tb.Fatal(err)
	}
	scan := buf.Bytes()[hdr:]
	if scan[0] != 0x54 || scan[1] != 0x85 || bytes.Count(scan[2:len(scan)-1], []byte{0x55}) != len(scan)-3 {
		tb.Fatalf("hostile scan is not 0x54 0x85 0x55...: % x", scan[:min(8, len(scan))])
	}
	buf.Write([]byte{0xff, markerEOI})
	return buf.Bytes()
}

func BenchmarkDecodeHostileSerial(b *testing.B) { benchDecodeHostile(b, 1) }

// BenchmarkDecodeHostileChunked decodes the hostile stream at the chunk
// count Decode derives.
func BenchmarkDecodeHostileChunked(b *testing.B) { benchDecodeHostile(b, 0) }

func benchDecodeHostile(b *testing.B, chunks int) {
	data := hostileStream(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img, err := decode(bytes.NewReader(data), chunks)
		if err != nil {
			b.Fatal(err)
		}
		img.Recycle()
	}
}

// maxHostileSlowdown bounds the chunked decode of a stream no chunk can
// synchronize on against the serial decode. Every chunk after the first is
// then decoded twice, but its speculation runs in parallel with the first
// chunk, so the wall time stays near one serial decode. Measured 1.0-1.2x
// at 2 chunks on a 2-vCPU x86-64 host.
const maxHostileSlowdown = 2

// TestHostileChunkedDecodeBound holds the never-synchronizing stream's
// chunked decode to maxHostileSlowdown times the serial decode, best of
// three interleaved runs each, after checking that every forced chunk
// count decodes it to the serial image.
func TestHostileChunkedDecodeBound(t *testing.T) {
	data := hostileStream(t)
	want, err := decode(bytes.NewReader(data), 1)
	if err != nil {
		t.Fatal(err)
	}
	for n := 2; n <= 8; n++ {
		got, err := decode(bytes.NewReader(data), n)
		if err != nil {
			t.Fatalf("%d chunks: %v", n, err)
		}
		assertCoeffEqual(t, want, got)
	}
	if benchgate.Race {
		t.Skip("timing ratios skip under the race detector")
	}
	res := benchgate.Best(t, 3, BenchmarkDecodeHostileSerial, BenchmarkDecodeHostileChunked)
	ratio := float64(res[1].NsPerOp()) / float64(res[0].NsPerOp())
	t.Logf("hostile stream: chunked decode %.2fx the serial decode (%v vs %v)",
		ratio, time.Duration(res[1].NsPerOp()), time.Duration(res[0].NsPerOp()))
	if ratio > maxHostileSlowdown {
		t.Fatalf("chunked decode of the hostile stream %.2fx the serial decode, want <= %dx", ratio, maxHostileSlowdown)
	}
}
