package spine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"puppies/internal/admission"
)

// Batch upload protocol (POST /v1/images:batch, DESIGN.md §14): the request
// is multipart/form-data where each item is either
//
//   - one part with Content-Type image/* whose body is the raw image
//     bytes, optionally followed by a part named "params" carrying the
//     item's public-parameter JSON — the fast path: no JSON envelope, no
//     base64; or
//   - one part of any other Content-Type whose body is an upload JSON
//     document — exactly the POST /v1/images body.
//
// Either kind of image part may carry its own Idempotency-Key part header.
// Only a non-image part can be a params part, so a raw image part is an
// image whatever its form name. Parts are read sequentially off the wire
// (multipart is inherently serial) into pooled buffers and handed to a
// bounded worker pool, so the daemon's per-item work overlaps the next part
// still streaming in. The read loop never blocks on a worker slot: a paused
// reader closes the TCP window and the client stalls on the ~200ms persist
// timer.
//
// The response is a BatchResponse whose results array matches the item
// order. Per-item failures (oversized part, a shed, whatever the daemon's
// store function reports) land in that item's result entry with an
// HTTP-equivalent status; they do not fail the batch. Only a malformed
// envelope (no parts, bad multipart syntax, a params part with no preceding
// raw image part, too many parts, total body over the batch cap) fails the
// whole request.
const (
	// BatchMaxParts bounds how many parts one batch may carry.
	BatchMaxParts = 1024
	// batchBodyFactor scales the per-part limit into the whole-batch body
	// cap: each part is bounded by the limit, the envelope by
	// batchBodyFactor times it.
	batchBodyFactor = 16
)

// BatchParamsPart names the multipart part that attaches public parameters
// to the immediately preceding raw image part.
const BatchParamsPart = "params"

// BatchResult is one item's outcome, in item order. Exactly one of ID or
// Error is set; Status carries the HTTP-equivalent code for failed items.
// DuplicateOf/Distance carry the near-duplicate hint when the signature
// index already held a close match for a stored item.
type BatchResult struct {
	ID          string `json:"id,omitempty"`
	Error       string `json:"error,omitempty"`
	Status      int    `json:"status,omitempty"`
	DuplicateOf string `json:"duplicateOf,omitempty"`
	Distance    uint32 `json:"distance,omitempty"`
}

// BatchResponse is the POST /v1/images:batch body.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
}

// BatchItem is one upload as the reader hands it to a daemon's store
// function. Body and Params borrow pooled part buffers that are recycled
// when the store function returns: bytes kept past that point must be
// copied.
type BatchItem struct {
	Key    string // the part's Idempotency-Key header, trimmed
	Raw    bool   // Body is raw image bytes, not an upload JSON document
	Body   []byte
	Params []byte // a raw item's params part, if it had one
}

// pendingItem is one in-flight batch entry: the reader loop fills it, a
// worker stores it and writes *slot. Workers never touch the slot slice
// itself, so the reader can keep appending without a lock.
type pendingItem struct {
	slot   *BatchResult
	key    string
	raw    bool
	buf    *bytes.Buffer // pooled; the worker recycles it
	params *bytes.Buffer // pooled; optional params for a raw item
	failed bool          // slot already holds a per-item error; do not dispatch
}

// ServeBatch answers a batch upload: it streams the parts, bounding each by
// limit and the whole body by batchBodyFactor*limit, and runs store on each
// item with at most workers items in flight. Every item pays one admission
// unit — the envelope is free — so under overload a batch sheds per item,
// with a 429 in that item's result slot, instead of all-or-nothing; the
// client re-uploads only the shed items, and stored ones deduplicate by
// idempotency key.
func (sp *Spine) ServeBatch(w http.ResponseWriter, r *http.Request, limit int64, workers int, store func(BatchItem) BatchResult) {
	r.Body = http.MaxBytesReader(w, r.Body, batchBodyFactor*limit)
	mr, err := r.MultipartReader()
	if err != nil {
		http.Error(w, fmt.Sprintf("batch requires multipart/form-data: %v", err), http.StatusBadRequest)
		return
	}

	var (
		wg    sync.WaitGroup
		slots []*BatchResult
	)
	sem := make(chan struct{}, workers)
	dispatch := func(it *pendingItem) {
		if it == nil || it.failed {
			return
		}
		wg.Add(1)
		// The semaphore is taken inside the goroutine, never in the read
		// loop — see the protocol comment. Memory stays bounded anyway:
		// buffered parts never exceed the whole-batch body cap enforced by
		// MaxBytesReader above.
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			*it.slot = sp.storeItem(r.Context(), it, store)
			PutBuf(it.buf)
			PutBuf(it.params)
		}()
	}

	// pending holds a raw image item that may still receive a params part;
	// any other part (or EOF) flushes it to a worker first.
	var pending *pendingItem
	fail := func(status int, format string, args ...any) {
		dispatch(pending)
		wg.Wait()
		if status != 0 {
			http.Error(w, fmt.Sprintf(format, args...), status)
		}
	}
	for i := 0; ; i++ {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				fail(http.StatusRequestEntityTooLarge, "batch body exceeds %d bytes", mbe.Limit)
				return
			}
			// The stream died mid-batch (client abort, network cut): there
			// is no one to answer, and an incomplete result list must not
			// masquerade as the batch outcome.
			fail(0, "")
			return
		}
		if i >= BatchMaxParts {
			fail(http.StatusBadRequest, "batch exceeds %d parts", BatchMaxParts)
			return
		}

		// Raw image parts — the fast path's bulk — skip the
		// Content-Disposition parse entirely.
		raw := strings.HasPrefix(part.Header.Get("Content-Type"), "image/")
		isParams := !raw && part.FormName() == BatchParamsPart
		if isParams && (pending == nil || !pending.raw) {
			fail(http.StatusBadRequest, "params part without a preceding image part")
			return
		}

		buf := GetBuf()
		// Read one byte past the limit so oversized parts are detected
		// rather than silently truncated.
		n, rerr := io.Copy(buf, io.LimitReader(part, limit+1))
		if rerr != nil {
			PutBuf(buf)
			var mbe *http.MaxBytesError
			if errors.As(rerr, &mbe) {
				fail(http.StatusRequestEntityTooLarge, "batch body exceeds %d bytes", mbe.Limit)
				return
			}
			fail(0, "")
			return
		}

		if isParams {
			// Attaches to the pending raw item; a failed pending item
			// (oversized) just swallows its params.
			if n > limit {
				PutBuf(buf)
				pending.slot.Error = fmt.Sprintf("params part exceeds %d bytes", limit)
				pending.slot.Status = http.StatusRequestEntityTooLarge
				pending.failed = true
			} else if pending.failed {
				PutBuf(buf)
			} else {
				pending.params = buf
			}
			dispatch(pending)
			pending = nil
			continue
		}

		// A new item: flush any raw item still waiting for params.
		dispatch(pending)
		pending = nil

		it := &pendingItem{
			slot: new(BatchResult),
			key:  strings.TrimSpace(part.Header.Get("Idempotency-Key")),
			raw:  raw,
			buf:  buf,
		}
		slots = append(slots, it.slot)
		if n > limit {
			PutBuf(buf)
			it.buf = nil
			it.failed = true
			// NextPart discards the rest of the part; the whole-body cap
			// above bounds how much an oversized part can make us skip.
			*it.slot = BatchResult{
				Error:  fmt.Sprintf("part exceeds %d bytes", limit),
				Status: http.StatusRequestEntityTooLarge,
			}
		}
		if it.raw {
			pending = it // may still receive a params part
		} else if !it.failed {
			dispatch(it)
		}
	}
	dispatch(pending)
	wg.Wait()
	if len(slots) == 0 {
		http.Error(w, "empty batch", http.StatusBadRequest)
		return
	}
	results := make([]BatchResult, len(slots))
	for i, slot := range slots {
		results[i] = *slot
	}
	WriteJSON(w, http.StatusOK, BatchResponse{Results: results})
}

// storeItem takes the item's admission unit and runs store on it, or
// reports the shed as the item's 429.
func (sp *Spine) storeItem(ctx context.Context, it *pendingItem, store func(BatchItem) BatchResult) BatchResult {
	release, out := sp.admit.Acquire(ctx, 1)
	if out != admission.Admitted {
		return BatchResult{
			Error:  fmt.Sprintf("overloaded (%s); retry after %.3fs", out, sp.admit.RetryAfterHint().Seconds()),
			Status: http.StatusTooManyRequests,
		}
	}
	defer release()
	item := BatchItem{Key: it.key, Raw: it.raw, Body: it.buf.Bytes()}
	if it.params != nil {
		item.Params = it.params.Bytes()
	}
	return store(item)
}

// bufPool recycles the byte buffers of both daemons: batch part buffers
// here, encode outputs in the PSP.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBuf caps the capacity a returned buffer may retain, so one huge
// part or image does not pin its buffer in the pool forever.
const maxPooledBuf = 8 << 20

// GetBuf returns an empty pooled buffer.
func GetBuf() *bytes.Buffer { return bufPool.Get().(*bytes.Buffer) }

// PutBuf recycles b (nil is ignored). Callers copy out any bytes they keep
// first: nothing may alias b afterwards.
func PutBuf(b *bytes.Buffer) {
	if b == nil || b.Cap() > maxPooledBuf {
		return
	}
	b.Reset()
	bufPool.Put(b)
}
