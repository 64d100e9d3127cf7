package faults

import (
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// Middleware wraps an http.Handler with server-side fault injection. Drop
// and DropResponse abort the connection via http.ErrAbortHandler, which the
// net/http server turns into a mid-stream close — clients observe a reset
// or unexpected EOF, exactly like a crashed backend.
//
// Invariant (panic audit): the two panic(http.ErrAbortHandler) calls below
// are the net/http-documented mechanism for aborting a connection — the
// server recovers this specific value itself and never crashes the process.
// They are deliberate, are not reachable as crashes from untrusted input,
// and must stay panics: returning an error cannot sever a connection
// mid-response.
func (in *Injector) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f := in.next(r)
		switch f.Kind {
		case Status503:
			if f.RetryAfter > 0 {
				w.Header().Set("Retry-After", retryAfterValue(f.RetryAfter))
			}
			http.Error(w, "faults: injected 503", http.StatusServiceUnavailable)

		case Drop:
			panic(http.ErrAbortHandler)

		case DropResponse:
			// The handler runs to completion (its side effects are
			// real); only the response is lost.
			rec := newRecorder()
			next.ServeHTTP(rec, r)
			panic(http.ErrAbortHandler)

		case Latency:
			timer := time.NewTimer(f.Delay)
			defer timer.Stop()
			select {
			case <-r.Context().Done():
				return
			case <-timer.C:
			}
			next.ServeHTTP(w, r)

		case Truncate:
			rec := newRecorder()
			next.ServeHTTP(rec, r)
			rec.replay(w, func(b []byte) []byte { return b[:len(b)/2] })

		case BitFlip:
			rec := newRecorder()
			next.ServeHTTP(rec, r)
			rec.replay(w, in.flipBit)

		default:
			next.ServeHTTP(w, r)
		}
	})
}

// recorder buffers a handler's response so the middleware can corrupt it
// before it hits the wire.
type recorder struct {
	header http.Header
	code   int
	body   []byte
}

func newRecorder() *recorder {
	return &recorder{header: make(http.Header), code: http.StatusOK}
}

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(code int) { r.code = code }

func (r *recorder) Write(p []byte) (int, error) {
	r.body = append(r.body, p...)
	return len(p), nil
}

// replay writes the recorded response with fn applied to the body.
// Non-200 responses pass through unmodified: the interesting corruption
// target is the payload, not an error message.
func (r *recorder) replay(w http.ResponseWriter, fn func([]byte) []byte) {
	body := r.body
	if r.code == http.StatusOK {
		body = fn(body)
	}
	for k, vs := range r.header {
		w.Header()[k] = vs
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(r.code)
	_, _ = w.Write(body)
}

func retryAfterValue(d time.Duration) string {
	secs := d.Seconds()
	if secs == float64(int64(secs)) {
		return fmt.Sprintf("%d", int64(secs))
	}
	return fmt.Sprintf("%g", secs)
}
