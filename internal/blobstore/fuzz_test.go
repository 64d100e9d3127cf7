package blobstore

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"
	"testing"
)

// FuzzEnvelope feeds arbitrary bytes to the envelope decoder. The contract
// under fuzzing: never panic, and never return a payload that differs from
// what a valid envelope of those exact bytes would carry — i.e. random
// corruption must surface as an error, not as silently wrong bytes. We
// check the second half by re-encoding any successfully decoded record and
// demanding it reproduce the input byte-for-byte (the v1 envelope is
// canonical: one record has exactly one encoding).
func FuzzEnvelope(f *testing.F) {
	good, err := encodeEnvelope(&Record{
		ID:     "fuzz-seed-0001",
		JPEG:   []byte{0xFF, 0xD8, 0xFF, 0xD9},
		Params: []byte(`{"v":1}`),
		Key:    "ik-fuzz",
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte("PSPB"))
	f.Add(bytes.Repeat([]byte{0xAA}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeEnvelope(data)
		if err != nil {
			return
		}
		re, rerr := encodeEnvelope(rec)
		if rerr != nil {
			t.Fatalf("decoded record fails to re-encode: %v", rerr)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("non-canonical decode: %d input bytes accepted but re-encode to %d different bytes", len(data), len(re))
		}
	})
}

// FuzzLog feeds arbitrary bytes to the journal codec. The contract under
// fuzzing: parseLog never panics and returns exactly the checksum-valid
// prefix — its bodies re-frame to the input's leading bytes, and the line
// after them, checked by an independent decoder, is not intact.
func FuzzLog(f *testing.F) {
	f.Add([]byte(logLine("B abc") + logLine("C abc")))
	f.Add([]byte(logLine("id c2lnbmF0dXJl") + "deadbeef torn-line-without-valid-"))
	f.Add([]byte(logLine("x") + "\n" + logLine("y")))
	f.Add([]byte(strings.ToUpper(logLine("B abc"))))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var prefix []byte
		for _, body := range parseLog(data) {
			prefix = append(prefix, logLine(body)...)
		}
		if !bytes.HasPrefix(data, prefix) {
			t.Fatalf("replayed bodies re-frame to %q, not a prefix of the input", prefix)
		}
		if line, _, ok := bytes.Cut(data[len(prefix):], []byte("\n")); ok && intactLine(line) {
			t.Fatalf("replay stopped before the intact line %q", line)
		}
	})
}

// intactLine reports whether line (without its newline) is "%08x body"
// with the lowercase hex CRC32C of body.
func intactLine(line []byte) bool {
	if len(line) < 9 || line[8] != ' ' {
		return false
	}
	crc, err := strconv.ParseUint(string(line[:8]), 16, 32)
	return err == nil && fmt.Sprintf("%08x", crc) == string(line[:8]) &&
		crc32.Checksum(line[9:], castagnoli) == uint32(crc)
}
