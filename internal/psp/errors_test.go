package psp

import (
	"errors"
	"net/http"
	"testing"
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
