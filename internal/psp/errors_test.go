package psp

import (
	"errors"
	"net/http"
	"testing"
	"time"
)

// TestStatusOutcomeTable pins the status-plus-class mapping the cluster
// gateway's breakers read.
func TestStatusOutcomeTable(t *testing.T) {
	cases := []struct {
		code  int
		class string
		want  Outcome
	}{
		{http.StatusOK, "", Served},
		{http.StatusNotModified, "", Served},
		{http.StatusNotFound, "", Missing},
		{http.StatusInternalServerError, errorClassCorrupt, Damaged},
		{http.StatusUnprocessableEntity, errorClassCorrupt, Damaged},
		{http.StatusTooManyRequests, "", Shed},
		{http.StatusTooManyRequests, errorClassOverloaded, Shed},
		{http.StatusInternalServerError, "", Down},
		{http.StatusServiceUnavailable, errorClassOverloaded, Down},
		{http.StatusBadRequest, "", Refused},
		{http.StatusConflict, "", Refused},
		{http.StatusRequestEntityTooLarge, "", Refused},
	}
	for _, c := range cases {
		if got := StatusOutcome(c.code, c.class); got != c.want {
			t.Errorf("StatusOutcome(%d, %q) = %v, want %v", c.code, c.class, got, c.want)
		}
	}
}

// TestStatusErrorIsAgreesWithOutcome checks every (status, class) pair: the
// client's sentinels say what the gateway's outcome says, so the two can
// never disagree on what a corrupt 500 or a 429 means.
func TestStatusErrorIsAgreesWithOutcome(t *testing.T) {
	for code := 100; code < 600; code++ {
		for _, class := range []string{"", errorClassCorrupt, errorClassOverloaded, "unknown"} {
			o := StatusOutcome(code, class)
			e := &StatusError{Code: code, Class: class}
			checks := []struct {
				sentinel error
				want     bool
			}{
				{ErrRetryable, o == Down || o == Shed},
				{ErrNotFound, o == Missing},
				{ErrCorrupt, o == Damaged},
				{ErrOverloaded, o == Shed},
			}
			for _, c := range checks {
				if got := errors.Is(e, c.sentinel); got != c.want {
					t.Errorf("(%d, %q) outcome %v: errors.Is(%v) = %v, want %v", code, class, o, c.sentinel, got, c.want)
				}
			}
		}
	}
}

// TestParseRetryAfterRange: a delta too large for a time.Duration, or not
// finite, reads as absent instead of overflowing into a negative wait.
func TestParseRetryAfterRange(t *testing.T) {
	cases := []struct {
		raw  string
		want time.Duration
	}{
		{"", 0},
		{"0", 0},
		{"0.25", 250 * time.Millisecond},
		{"3", 3 * time.Second},
		{"-1", 0},
		{"9e9", 2500000 * time.Hour},
		{"1e10", 0},
		{"1e300", 0},
		{"1e400", 0},
		{"Inf", 0},
		{"+Inf", 0},
		{"-Inf", 0},
		{"NaN", 0},
		{"soon", 0},
		{"Mon, 02 Jan 2006 15:04:05 GMT", 0},
	}
	for _, c := range cases {
		if got := ParseRetryAfter(http.Header{"Retry-After": {c.raw}}); got != c.want {
			t.Errorf("ParseRetryAfter(%q) = %v, want %v", c.raw, got, c.want)
		}
	}
}

// FuzzParseRetryAfter: no header value panics or yields a negative wait.
func FuzzParseRetryAfter(f *testing.F) {
	for _, s := range []string{"", "0.25", "120", "-1", "9e9", "1e10", "Inf", "NaN", "0x1p70", "Mon, 02 Jan 2006 15:04:05 GMT"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		if d := ParseRetryAfter(http.Header{"Retry-After": {raw}}); d < 0 {
			t.Fatalf("ParseRetryAfter(%q) = %v, want >= 0", raw, d)
		}
	})
}
