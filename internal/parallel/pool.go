package parallel

import "sync"

// SlicePool recycles variable-length scratch slices; the zero value is
// ready to use. Put recycles a backing array for a later Get of any length
// that fits its capacity.
type SlicePool[T any] struct{ p sync.Pool }

// Get returns a zeroed slice of length n.
func (sp *SlicePool[T]) Get(n int) []T {
	if s := sp.pooled(n); s != nil {
		s = s[:n]
		clear(s)
		return s
	}
	return make([]T, n)
}

// GetEmpty returns an empty slice with capacity at least c, for buffers
// filled by append: their stale contents are never read, so they are not
// cleared.
func (sp *SlicePool[T]) GetEmpty(c int) []T {
	if s := sp.pooled(c); s != nil {
		return s[:0]
	}
	return make([]T, 0, c)
}

// pooled returns a recycled backing array of capacity at least c, or nil.
func (sp *SlicePool[T]) pooled(c int) []T {
	if v := sp.p.Get(); v != nil {
		if s := *v.(*[]T); cap(s) >= c {
			return s
		}
	}
	return nil
}

// Put recycles s's backing array. The caller asserts sole ownership:
// nothing may alias s afterwards.
func (sp *SlicePool[T]) Put(s []T) {
	if cap(s) == 0 {
		return
	}
	s = s[:0]
	sp.p.Put(&s)
}
