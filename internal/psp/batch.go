package psp

import (
	"bufio"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"sync"

	"puppies/internal/parallel"
	"puppies/internal/spine"
)

// Batch upload protocol (POST /v1/images:batch, DESIGN.md §14): the
// multipart framing, limits, per-item admission and worker pool live in
// spine.ServeBatch, shared with the cluster gateway; the PSP supplies only
// its per-item store function (storeItem) and concurrency. The result types
// are the protocol's, aliased here for clients.
type (
	BatchResult   = spine.BatchResult
	BatchResponse = spine.BatchResponse
)

// BatchParamsPart names the multipart part that attaches public parameters
// to the immediately preceding raw image part.
const BatchParamsPart = spine.BatchParamsPart

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.spine().ServeBatch(w, r, s.maxUpload(), parallel.Workers(), s.storeItem)
}

// storeItem stores one batch item. The reader recycles the item's buffers
// once it returns, which is safe: storeUpload copies borrowed bytes and
// storeOne's JSON decode allocates its own.
func (s *Server) storeItem(it spine.BatchItem) BatchResult {
	if it.Raw {
		return s.storeRaw(it.Body, it.Params, it.Key, false)
	}
	return s.storeOne(it.Body, it.Key)
}

// storeOne decodes an UploadRequest body (POST /v1/images and the batch
// route's JSON parts) and stores it under a fresh ID.
func (s *Server) storeOne(body []byte, key string) BatchResult {
	var req UploadRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return BatchResult{Error: fmt.Sprintf("decode request: %v", err), Status: http.StatusBadRequest}
	}
	return s.storeRaw(req.Image, req.Params, key, true)
}

// storeRaw stores an upload under a freshly minted ID (see storeUpload).
func (s *Server) storeRaw(image, params []byte, key string, owned bool) BatchResult {
	var idBytes [12]byte
	if _, err := rand.Read(idBytes[:]); err != nil {
		return BatchResult{Error: fmt.Sprintf("id generation: %v", err), Status: http.StatusInternalServerError}
	}
	return s.storeUpload(hex.EncodeToString(idBytes[:]), image, params, key, owned)
}

// batchWriterPool recycles the client's multipart coalescing buffer.
var batchWriterPool = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 32<<10) }}

// BatchUpload is one item of Client.UploadBatch: encoded JPEG bytes plus
// the opaque public-parameter document (either may come straight from
// puppies.Protected).
type BatchUpload struct {
	Image  []byte
	Params json.RawMessage
}

// UploadBatch streams every item to POST /v1/images:batch in one request
// and returns per-item results in order. Items travel as raw image/jpeg
// parts (plus a params part when set) multipart-streamed through an io.Pipe
// — no JSON envelope, no base64, and the request body is produced while it
// uploads, so batch memory stays at one item, not the whole batch. Each
// item carries a per-item idempotency key generated once before the first
// attempt; transient failures retry the whole batch and every
// already-stored item deduplicates server-side to its original ID.
//
// A non-nil error means the batch envelope failed (transport, HTTP status,
// undecodable response); per-item failures are reported in the returned
// results, not as an error.
func (c *Client) UploadBatch(ctx context.Context, items []BatchUpload) ([]BatchResult, error) {
	if len(items) == 0 {
		return nil, errors.New("psp: empty batch")
	}
	keys := make([]string, len(items))
	for i := range items {
		keys[i] = newIdempotencyKey()
	}
	// The boundary comes from multipart.Writer so it stays RFC-compliant
	// and unpredictable; every attempt streams a fresh body under it.
	mw := multipart.NewWriter(nil)
	header := http.Header{"Content-Type": {mw.FormDataContentType()}}
	raw, err := c.retry(ctx, http.MethodPost, c.BaseURL+"/v1/images:batch", header, func() io.Reader {
		return streamBatch(items, keys, mw.Boundary())
	})
	if err != nil {
		return nil, err
	}
	var br BatchResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		return nil, &corruptError{fmt.Errorf("decode batch response: %w", err)}
	}
	if len(br.Results) != len(items) {
		return nil, &corruptError{fmt.Errorf("batch response has %d results for %d items", len(br.Results), len(items))}
	}
	return br.Results, nil
}

// streamBatch returns the multipart body of one batch attempt, produced by
// a goroutine while the transport reads it. The goroutine exits once the
// body is written or the reader is closed (Attempt closes it on every
// path).
func streamBatch(items []BatchUpload, keys []string, boundary string) io.Reader {
	pr, pw := io.Pipe()
	// The pipe is unbuffered: every Write is a goroutine handoff and becomes
	// its own chunked-transfer frame. Coalescing through a bufio.Writer turns
	// a part's header lines plus small bodies into one frame. Part framing is
	// written by hand against that writer — the format is fixed and tiny, and
	// multipart.Writer's per-part MIMEHeader maps and sorted-key walks are
	// pure overhead on this hot path.
	bw := batchWriterPool.Get().(*bufio.Writer)
	bw.Reset(pw)
	go func() {
		defer func() {
			bw.Reset(nil)
			batchWriterPool.Put(bw)
		}()
		writeOne := func(item BatchUpload, key string) error {
			bw.WriteString("--")
			bw.WriteString(boundary)
			bw.WriteString("\r\nContent-Disposition: form-data; name=\"image\"\r\nContent-Type: image/jpeg\r\n")
			bw.WriteString(idempotencyHeader)
			bw.WriteString(": ")
			bw.WriteString(key)
			bw.WriteString("\r\n\r\n")
			bw.Write(item.Image)
			if len(item.Params) > 0 {
				bw.WriteString("\r\n--")
				bw.WriteString(boundary)
				bw.WriteString("\r\nContent-Disposition: form-data; name=\"" + BatchParamsPart + "\"\r\nContent-Type: application/json\r\n\r\n")
				bw.Write(item.Params)
			}
			_, err := bw.WriteString("\r\n")
			return err
		}
		for i, item := range items {
			if err := writeOne(item, keys[i]); err != nil {
				_ = pw.CloseWithError(err)
				return
			}
		}
		bw.WriteString("--")
		bw.WriteString(boundary)
		if _, err := bw.WriteString("--\r\n"); err != nil {
			_ = pw.CloseWithError(err)
			return
		}
		_ = pw.CloseWithError(bw.Flush())
	}()
	return pr
}
