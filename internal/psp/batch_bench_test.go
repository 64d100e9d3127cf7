package psp

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"puppies/internal/jpegc"
)

// batchBenchItems is the number of images per upload round in the batch
// throughput benchmarks; both variants push the same round so their MB/s
// are directly comparable at equal GOMAXPROCS.
const batchBenchItems = 16

func batchBenchJPEG(b *testing.B) []byte {
	b.Helper()
	img, err := jpegc.FromPlanar(testPlanar(64, 48), jpegc.Options{Quality: 80})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := img.Encode(&buf, jpegc.EncodeOptions{Tables: jpegc.TablesOptimized}); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkUploadSequential is the baseline for BenchmarkUploadBatch: one
// POST /v1/images round trip per image, requests serialized the way a naive
// client loop issues them. Marshalling happens inside the loop, matching
// what UploadBatch does per item.
func BenchmarkUploadSequential(b *testing.B) {
	ts := httptest.NewServer(NewServer().Handler())
	defer ts.Close()
	jpeg := batchBenchJPEG(b)
	b.SetBytes(int64(batchBenchItems * len(jpeg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batchBenchItems; j++ {
			body, err := json.Marshal(UploadRequest{Image: jpeg})
			if err != nil {
				b.Fatal(err)
			}
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/images", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set(idempotencyHeader, newIdempotencyKey())
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
	}
}

// BenchmarkUploadBatch uploads the same round of images through one
// streaming multipart POST /v1/images:batch. One request amortizes the
// HTTP round trips and the server validates parts on the worker pool, so
// throughput per core must stay well ahead of the sequential loop.
func BenchmarkUploadBatch(b *testing.B) {
	ts := httptest.NewServer(NewServer().Handler())
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	jpeg := batchBenchJPEG(b)
	items := make([]BatchUpload, batchBenchItems)
	for i := range items {
		items[i] = BatchUpload{Image: jpeg}
	}
	b.SetBytes(int64(batchBenchItems * len(jpeg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := c.UploadBatch(context.Background(), items)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Error != "" {
				b.Fatalf("part failed: %s", r.Error)
			}
		}
	}
}
