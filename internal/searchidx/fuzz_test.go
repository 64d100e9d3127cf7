package searchidx

import (
	"bytes"
	"math/rand"
	"testing"

	"puppies/internal/dct"
	"puppies/internal/jpegc"
)

// FuzzSignature exercises the signature codec and computation against
// arbitrary input: journal bodies must round-trip or be rejected (never
// panic, never alias), and Compute must be total and deterministic over
// arbitrary coefficient content and arbitrary params documents.
func FuzzSignature(f *testing.F) {
	f.Add([]byte("seed"), []byte(`{"regions":[{"roi":{"x":0,"y":0,"w":16,"h":16}}]}`))
	f.Add([]byte{0xff, 0x00, 0x80}, []byte(`not json`))
	var sig Signature
	for i := range sig {
		sig[i] = byte(i * 4)
	}
	f.Add([]byte(journalBody("some-id", sig)), []byte(`{}`))
	f.Fuzz(func(t *testing.T, line, params []byte) {
		// Codec: parse arbitrary bytes as a journal body; an accepted body
		// must re-encode to the identical text.
		text := string(line)
		if id, got, ok := parseJournalBody(text); ok {
			if re := journalBody(id, got); re != text {
				t.Fatalf("journal body not canonical:\n in %q\nout %q", text, re)
			}
		}
		// Computation: build a small coefficient image from the fuzz bytes
		// and require Compute to be total and deterministic.
		img := imageFromFuzz(line)
		s1 := Compute(img, params)
		s2 := Compute(img, params)
		if s1 != s2 {
			t.Fatal("Compute is not deterministic")
		}
		// Protected rects from arbitrary params must never panic and the
		// result must be reusable.
		_ = ProtectedRects(params)
	})
}

// imageFromFuzz deterministically derives a small coefficient image from
// fuzz bytes, covering odd grids and extreme coefficient values.
func imageFromFuzz(data []byte) *jpegc.Image {
	rng := rand.New(rand.NewSource(int64(len(data)) + 1))
	bw := 1 + len(data)%7
	bh := 1 + (len(data)/3)%5
	comp := jpegc.Component{BlocksW: bw, BlocksH: bh, Blocks: make([]dct.Block, bw*bh)}
	for i := range comp.Quant {
		comp.Quant[i] = uint16(1 + rng.Intn(64))
	}
	for i := range comp.Blocks {
		for c := range comp.Blocks[i] {
			if len(data) > 0 {
				comp.Blocks[i][c] = int32(int8(data[(i*64+c)%len(data)])) * 9
			}
		}
	}
	return &jpegc.Image{W: bw * 8, H: bh * 8, Comps: []jpegc.Component{comp}}
}

// FuzzIndexSnapshot hardens the snapshot decoder: arbitrary bytes must be
// cleanly rejected or decoded, and a successful decode must re-encode to a
// decodable equivalent (envelope framing, counts, and lengths all agree).
func FuzzIndexSnapshot(f *testing.F) {
	rng := rand.New(rand.NewSource(31))
	var entries []snapEntry
	for i := 0; i < 3; i++ {
		entries = append(entries, snapEntry{id: string(rune('a' + i)), sig: randomSig(rng)})
	}
	if seed, err := encodeSnapshot(entries); err == nil {
		f.Add(seed)
		// A truncated and a bit-flipped valid snapshot.
		f.Add(seed[:len(seed)-3])
		flip := bytes.Clone(seed)
		flip[len(flip)/3] ^= 1
		f.Add(flip)
	}
	f.Add([]byte("PSPB"))
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := decodeSnapshot(data)
		if err != nil {
			return
		}
		re, err := encodeSnapshot(entries)
		if err != nil {
			t.Fatalf("decoded snapshot does not re-encode: %v", err)
		}
		back, err := decodeSnapshot(re)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if len(back) != len(entries) {
			t.Fatalf("entry count changed across round-trip: %d != %d", len(back), len(entries))
		}
		for i := range back {
			if back[i].id != entries[i].id || back[i].sig != entries[i].sig {
				t.Fatalf("entry %d changed across round-trip", i)
			}
		}
	})
}
