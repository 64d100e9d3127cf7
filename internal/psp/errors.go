package psp

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"

	"puppies/internal/spine"
)

// Sentinel errors callers can branch on with errors.Is. They classify every
// failure the client can surface:
//
//   - ErrRetryable: transient — the request may succeed if repeated (5xx,
//     429, connection reset, timeout). The client already retried
//     idempotent requests internally; seeing this means retries were
//     exhausted.
//   - ErrNotFound: the PSP has no image under that ID (HTTP 404). Terminal.
//   - ErrCorrupt: the PSP answered 200 but the payload failed to decode or
//     failed an integrity check. Re-fetching the same route is unlikely to
//     help; the /pixels fallback might (see FetchTransformedGraceful).
//   - ErrTooLarge: a request or response exceeded the configured byte
//     limit (HTTP 413 on upload, client-side cap on download). Terminal.
//   - ErrOverloaded: the server shed the request under admission control
//     (HTTP 429). Always also ErrRetryable — the server is healthy, just
//     saturated — and always carries a Retry-After the client honors
//     exactly.
var (
	ErrRetryable  = errors.New("psp: retryable failure")
	ErrNotFound   = errors.New("psp: image not found")
	ErrCorrupt    = errors.New("psp: corrupt payload")
	ErrTooLarge   = errors.New("psp: payload too large")
	ErrOverloaded = errors.New("psp: server overloaded")
)

// errorClassHeader lets the server refine how clients classify a status
// code: a 500 carrying class "corrupt" means the *stored data* is damaged,
// which no amount of retrying the same route will fix.
const (
	errorClassHeader     = spine.ErrorClassHeader
	errorClassCorrupt    = "corrupt"
	errorClassOverloaded = spine.ErrorClassOverloaded
)

// Exported aliases of the error-class protocol, used by the cluster gateway
// to pass shard classifications through to clients unchanged.
const (
	ErrorClassHeader     = errorClassHeader
	ErrorClassCorrupt    = errorClassCorrupt
	ErrorClassOverloaded = errorClassOverloaded
)

// StatusError reports a non-2xx HTTP response from the PSP.
type StatusError struct {
	Method string
	Path   string
	Code   int
	Body   string
	// RetryAfter is the parsed Retry-After header, zero if absent.
	RetryAfter time.Duration
	// Class is the server's X-PSP-Error-Class refinement, empty if absent.
	Class string
}

func (e *StatusError) Error() string {
	msg := fmt.Sprintf("psp: %s %s: HTTP %d", e.Method, e.Path, e.Code)
	if e.Body != "" {
		msg += ": " + e.Body
	}
	return msg
}

// Outcome is what one PSP answer means to its caller. StatusOutcome reads
// it from the status code and error class; the cluster gateway feeds its
// breakers from it and StatusError.Is derives the client's sentinels from
// it, so the two cannot disagree on what a corrupt 500 or a 429 means.
type Outcome uint8

const (
	// Served is a 200 or a 304.
	Served Outcome = iota
	// Missing is a 404: a complete answer from a healthy server.
	Missing
	// Damaged carries the corrupt error class: the server is healthy, its
	// stored copy is not, and retrying the same route will not help.
	Damaged
	// Shed is a 429: the server is alive but refused the work under
	// admission control.
	Shed
	// Down is any other 5xx; a caller also reports a transport error or an
	// attempt timeout as Down.
	Down
	// Refused is any other status: a deterministic rejection of the
	// request that every replica would repeat.
	Refused
	// Abandoned is never read from a status: the caller's own context
	// ended before the answer arrived.
	Abandoned
)

// StatusOutcome maps a status code and its X-PSP-Error-Class to an Outcome.
func StatusOutcome(code int, class string) Outcome {
	switch {
	case code == http.StatusOK || code == http.StatusNotModified:
		return Served
	case code == http.StatusNotFound:
		return Missing
	case class == errorClassCorrupt:
		return Damaged
	case code == http.StatusTooManyRequests:
		return Shed
	case code >= 500:
		return Down
	default:
		return Refused
	}
}

// Is maps the response's Outcome onto the package sentinels so that
// errors.Is(err, ErrRetryable) etc. work on status errors. A 5xx tagged
// with the corrupt class is ErrCorrupt and not retryable: the server is
// healthy, its stored copy of the image is not.
func (e *StatusError) Is(target error) bool {
	o := StatusOutcome(e.Code, e.Class)
	switch target {
	case ErrRetryable:
		return o == Down || o == Shed
	case ErrNotFound:
		return o == Missing
	case ErrCorrupt:
		return o == Damaged
	case ErrTooLarge:
		return e.Code == http.StatusRequestEntityTooLarge
	case ErrOverloaded:
		return o == Shed
	}
	return false
}

// retryableError tags a transport-level failure (reset, timeout, EOF) as
// retryable while preserving the original error chain.
type retryableError struct{ err error }

func (e *retryableError) Error() string        { return e.err.Error() }
func (e *retryableError) Unwrap() error        { return e.err }
func (e *retryableError) Is(target error) bool { return target == ErrRetryable }

// corruptError tags a decode/integrity failure on a 200 response.
type corruptError struct{ err error }

func (e *corruptError) Error() string        { return "psp: corrupt payload: " + e.err.Error() }
func (e *corruptError) Unwrap() error        { return e.err }
func (e *corruptError) Is(target error) bool { return target == ErrCorrupt }

// classifyTransport wraps transport errors that are worth retrying:
// timeouts, connection resets/refusals, and short reads. Context
// cancellation from the caller is never retryable.
func classifyTransport(err error, attemptTimedOut bool) error {
	if err == nil {
		return nil
	}
	if attemptTimedOut {
		// The per-attempt deadline fired, not the caller's context.
		return &retryableError{err}
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.EPIPE) {
		return &retryableError{err}
	}
	var netErr net.Error
	if errors.As(err, &netErr) && netErr.Timeout() {
		return &retryableError{err}
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return &retryableError{err}
	}
	return err
}

// ParseRetryAfter reads a Retry-After header as delta seconds (fractional
// accepted) or an HTTP date. Returns zero if absent or unparseable, and for
// a delta that is not finite or does not fit a time.Duration. The cluster
// gateway uses it to pass shard hints through to clients.
func ParseRetryAfter(h http.Header) time.Duration {
	raw := strings.TrimSpace(h.Get("Retry-After"))
	if raw == "" {
		return 0
	}
	if secs, err := strconv.ParseFloat(raw, 64); err == nil {
		// The comparisons are false for NaN, and float64(math.MaxInt64)
		// is 2^63, so every accepted product converts without overflow.
		if ns := secs * float64(time.Second); ns >= 0 && ns < float64(math.MaxInt64) {
			return time.Duration(ns)
		}
		return 0
	}
	if t, err := http.ParseTime(raw); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}
