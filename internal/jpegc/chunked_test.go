package jpegc_test

import (
	"bytes"
	"fmt"
	"image"
	"testing"

	"puppies"
	"puppies/internal/jpegc"
)

// chunkedCorpus returns the streams the chunked decode is held to the
// serial one on: the share render under optimized and Annex K tables, the
// facade's VariantZ and VariantC outputs of it, stdlib 4:2:0 and 4:2:2,
// grayscale, and restart streams.
func chunkedCorpus(t *testing.T) map[string][]byte {
	t.Helper()
	img, err := jpegc.FromPlanar(jpegc.ShareRender(t), jpegc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	encode := func(m *jpegc.Image, opts jpegc.EncodeOptions) []byte {
		var buf bytes.Buffer
		if err := m.Encode(&buf, opts); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	corpus := map[string][]byte{
		"share-optimized":   encode(img, jpegc.EncodeOptions{Tables: jpegc.TablesOptimized}),
		"share-annexk":      encode(img, jpegc.EncodeOptions{}),
		"share-restart-37":  encode(img, jpegc.EncodeOptions{Tables: jpegc.TablesOptimized, RestartInterval: 37}),
		"stdlib-420":        jpegc.StdlibYCbCr(t, 517, 389, image.YCbCrSubsampleRatio420),
		"stdlib-422":        jpegc.StdlibYCbCr(t, 389, 261, image.YCbCrSubsampleRatio422),
		"stdlib-420-small":  jpegc.StdlibYCbCr(t, 67, 45, image.YCbCrSubsampleRatio420),
		"share-restart-one": encode(img, jpegc.EncodeOptions{RestartInterval: 1}),
	}
	gray := &jpegc.Image{W: img.W, H: img.H, Comps: img.Comps[:1]}
	corpus["share-gray"] = encode(gray, jpegc.EncodeOptions{Tables: jpegc.TablesOptimized})

	src := jpegc.ShareRender(t).Quantize8().ToStdImage()
	regions := []puppies.Rect{{X: 64, Y: 64, W: 320, H: 256}, {X: 480, Y: 200, W: 256, H: 320}}
	for _, v := range []puppies.Variant{puppies.VariantZ, puppies.VariantC} {
		prot, err := puppies.Protect(src, puppies.ProtectOptions{Variant: v, Regions: regions})
		if err != nil {
			t.Fatal(err)
		}
		corpus[fmt.Sprintf("protect-%s", v)] = prot.JPEG
	}
	return corpus
}

// decodeAt decodes data with the scan cut into the given number of chunks.
func decodeAt(data []byte, chunks int) (*jpegc.Image, error) {
	return jpegc.DecodeChunks(bytes.NewReader(data), chunks)
}

// checkChunkedMatchesSerial decodes data serially and at every chunk count
// in 2..8, and requires the same image from each or an error from each.
func checkChunkedMatchesSerial(t *testing.T, name string, data []byte) (ok bool) {
	t.Helper()
	want, wantErr := decodeAt(data, 1)
	for n := 2; n <= 8; n++ {
		got, err := decodeAt(data, n)
		switch {
		case (err != nil) != (wantErr != nil):
			t.Errorf("%s at %d chunks: error %v, serial error %v", name, n, err, wantErr)
		case err == nil && !jpegc.SameCoeffs(want, got):
			t.Errorf("%s at %d chunks: image differs from the serial decode", name, n)
		}
		if got != nil {
			got.Recycle()
		}
	}
	if want != nil {
		want.Recycle()
	}
	return wantErr == nil
}

// TestChunkedDecodeMatchesSerial is the differential property of the
// chunked scan decode: on every corpus stream, and on truncated and
// bit-flipped mutations of it, decoding at any chunk count gives the
// serial decode's image, or fails where the serial decode fails.
func TestChunkedDecodeMatchesSerial(t *testing.T) {
	corpus := chunkedCorpus(t)
	for name, data := range corpus {
		if !checkChunkedMatchesSerial(t, name, data) {
			t.Fatalf("%s: serial decode failed on an unmutated stream", name)
		}
		for i, cut := range []int{len(data) / 3, len(data) * 3 / 4, len(data) - 40, len(data) - 2} {
			checkChunkedMatchesSerial(t, fmt.Sprintf("%s truncated #%d", name, i), data[:cut])
		}
		// Flip bits well inside the entropy-coded data; the scan is most
		// of each stream, so its second half always lies inside it.
		for i := 0; i < 6; i++ {
			mut := bytes.Clone(data)
			pos := len(mut)/2 + i*len(mut)/16
			mut[pos] ^= byte(1 << (i % 8))
			checkChunkedMatchesSerial(t, fmt.Sprintf("%s flipped #%d", name, i), mut)
		}
	}
}
