package jpegc

import (
	"bytes"
	"image"
	"math/rand"
	"slices"
	"testing"
)

// FuzzDecode is a native fuzz target for the bit-stream parser, which also
// holds the chunked scan decode to the serial one on every input. The seed
// corpus covers a valid color stream, a valid grayscale stream, and the
// hostile headers from the unit tests. Run with:
//
//	go test -fuzz FuzzDecode ./internal/jpegc
func FuzzDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, seed := range []struct {
		w, h, ch int
	}{{32, 24, 3}, {16, 16, 1}} {
		img := randomCoeffImage(rng, seed.w, seed.h, seed.ch)
		var buf bytes.Buffer
		if err := img.Encode(&buf, EncodeOptions{}); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{0xff, 0xd8, 0xff, 0xd9})
	f.Add([]byte{0xff, 0xd8, 0xff, 0xc0, 0x00, 0x0b, 8, 0xff, 0xff, 0xff, 0xff, 1, 1, 0x11, 0, 0xff, 0xd9})
	// Seeds for the restart-segment scanner and the 16-bit-code tail of the
	// LUT decoder: a stream with RSTn markers every other MCU and one with
	// per-image optimized tables (their tails reach full 16-bit codes).
	restartImg := randomCoeffImage(rng, 24, 16, 3)
	var rbuf bytes.Buffer
	if err := restartImg.Encode(&rbuf, EncodeOptions{RestartInterval: 2}); err != nil {
		f.Fatal(err)
	}
	f.Add(rbuf.Bytes())
	var obuf bytes.Buffer
	if err := restartImg.Encode(&obuf, EncodeOptions{Tables: TablesOptimized}); err != nil {
		f.Fatal(err)
	}
	f.Add(obuf.Bytes())
	// Native-subsampled seeds: 4:2:0 and 4:2:2 streams from the stdlib
	// encoder reach the MCU-interleaved scan parser and the per-component
	// geometry paths (odd dims exercise partial edge MCUs). Also re-encode
	// the 4:2:0 stream with our own encoder so the fuzzer starts from our
	// interleaved writer's output too.
	f.Add(stdlibYCbCr(f, 67, 45, image.YCbCrSubsampleRatio420))
	f.Add(stdlibYCbCr(f, 48, 33, image.YCbCrSubsampleRatio422))
	sub, err := Decode(bytes.NewReader(stdlibYCbCr(f, 64, 48, image.YCbCrSubsampleRatio420)))
	if err != nil {
		f.Fatal(err)
	}
	var sbuf bytes.Buffer
	if err := sub.Encode(&sbuf, EncodeOptions{RestartInterval: 1}); err != nil {
		f.Fatal(err)
	}
	f.Add(sbuf.Bytes())

	// A seed whose scan is big enough to be cut into chunks by default.
	big := randomCoeffImage(rng, 256, 208, 3)
	var bbuf bytes.Buffer
	if err := big.Encode(&bbuf, EncodeOptions{Tables: TablesOptimized}); err != nil {
		f.Fatal(err)
	}
	f.Add(bbuf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		// The chunked decode must agree with the serial one: the same
		// image, or an error from both. The input picks the chunk count.
		out, err := decode(bytes.NewReader(data), 1)
		chunks := 2 + len(data)%7
		chunked, cerr := decode(bytes.NewReader(data), chunks)
		if (err != nil) != (cerr != nil) {
			t.Fatalf("serial decode error %v, %d-chunk decode error %v", err, chunks, cerr)
		}
		if err != nil {
			return
		}
		if !sameCoeffs(out, chunked) {
			t.Fatalf("%d-chunk decode differs from the serial decode", chunks)
		}
		if vErr := out.Validate(); vErr != nil {
			t.Fatalf("Decode returned invalid image: %v", vErr)
		}
		// Anything we accept we must be able to re-encode.
		var buf bytes.Buffer
		if encErr := out.Encode(&buf, EncodeOptions{}); encErr != nil {
			t.Fatalf("accepted image failed to re-encode: %v", encErr)
		}
	})
}

// sameCoeffs reports whether two images have identical geometry, tables
// and coefficients.
func sameCoeffs(a, b *Image) bool {
	if a.W != b.W || a.H != b.H || len(a.Comps) != len(b.Comps) {
		return false
	}
	for ci := range a.Comps {
		x, y := &a.Comps[ci], &b.Comps[ci]
		if x.BlocksW != y.BlocksW || x.BlocksH != y.BlocksH || x.Quant != y.Quant ||
			x.HSamp != y.HSamp || x.VSamp != y.VSamp || !slices.Equal(x.Blocks, y.Blocks) {
			return false
		}
	}
	return true
}
