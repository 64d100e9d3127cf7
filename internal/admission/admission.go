// Package admission implements bounded-inflight admission control for the
// serving path: a weighted FIFO semaphore with a short bounded queue and a
// per-request wait deadline. Work beyond the inflight capacity queues
// briefly; work that cannot be admitted in time is shed explicitly (the
// caller answers HTTP 429 with a Retry-After hint) instead of piling onto an
// unbounded queue until every request times out — under overload a server
// must degrade by rejecting crisply, not by collapsing.
//
// The controller is deliberately tiny and dependency-free; the serving
// spine (internal/spine) builds one per daemon and fronts the routes of
// both the PSP server and the cluster gateway with it.
package admission

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Outcome classifies one Acquire call.
type Outcome int

const (
	// Admitted means capacity was granted; the caller must call the release
	// function when the work finishes.
	Admitted Outcome = iota
	// ShedQueueFull means the wait queue was already at capacity — the
	// server is far past saturation and the request was rejected instantly.
	ShedQueueFull
	// ShedTimeout means the request queued but capacity did not free up
	// within the wait bound (or the caller's context expired first).
	ShedTimeout
	// ShedDraining means the server is draining: requests that would have
	// had to queue are rejected immediately so shutdown never grows a
	// backlog, while requests that fit in free capacity still run.
	ShedDraining
)

func (o Outcome) String() string {
	switch o {
	case Admitted:
		return "admitted"
	case ShedQueueFull:
		return "shed-queue-full"
	case ShedTimeout:
		return "shed-timeout"
	case ShedDraining:
		return "shed-draining"
	}
	return "unknown"
}

// Config parameterizes a Controller. Zero fields take the defaults.
type Config struct {
	// Capacity is the weighted inflight budget. Zero means
	// DefaultCapacityPerProc per GOMAXPROCS (set by the caller); the
	// controller itself treats <=0 as 1.
	Capacity int
	// MaxWait bounds how long a request may queue for capacity before it is
	// shed. Zero means DefaultMaxWait.
	MaxWait time.Duration
	// MaxQueue bounds how many requests may wait at once; arrivals beyond
	// it are shed instantly. Zero means DefaultQueueFactor*Capacity.
	MaxQueue int
	// RetryAfter is the base Retry-After hint attached to sheds; the
	// effective hint scales with queue occupancy. Zero means
	// DefaultRetryAfter.
	RetryAfter time.Duration
}

// Controller defaults.
const (
	DefaultMaxWait     = 500 * time.Millisecond
	DefaultQueueFactor = 8
	DefaultRetryAfter  = 250 * time.Millisecond
)

// Stats is a point-in-time snapshot of the controller, shaped for statz
// JSON bodies.
type Stats struct {
	Capacity      int    `json:"capacity"`
	Inflight      int    `json:"inflight"`
	Queued        int    `json:"queued"`
	Admitted      uint64 `json:"admitted"`
	ShedQueueFull uint64 `json:"shedQueueFull"`
	ShedTimeout   uint64 `json:"shedTimeout"`
	ShedDraining  uint64 `json:"shedDraining"`
}

// Sheds is the total number of rejected acquisitions in the snapshot.
func (s Stats) Sheds() uint64 { return s.ShedQueueFull + s.ShedTimeout + s.ShedDraining }

type waiter struct {
	weight  int
	ready   chan struct{}
	granted bool
}

// Controller is the weighted FIFO admission semaphore. A nil *Controller
// admits everything (admission disabled).
type Controller struct {
	capacity   int
	maxWait    time.Duration
	maxQueue   int
	retryAfter time.Duration

	mu       sync.Mutex
	tokens   int
	waiters  *list.List
	draining bool

	admitted      atomic.Uint64
	shedQueueFull atomic.Uint64
	shedTimeout   atomic.Uint64
	shedDraining  atomic.Uint64
}

// New builds a Controller from cfg.
func New(cfg Config) *Controller {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1
	}
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = DefaultMaxWait
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = DefaultQueueFactor * cfg.Capacity
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	return &Controller{
		capacity:   cfg.Capacity,
		maxWait:    cfg.MaxWait,
		maxQueue:   cfg.MaxQueue,
		retryAfter: cfg.RetryAfter,
		tokens:     cfg.Capacity,
		waiters:    list.New(),
	}
}

// SetDraining flips drain mode: while draining, acquisitions that would have
// to queue are shed immediately (in-flight work and fast-path admissions are
// unaffected), so a shutting-down server never accumulates a backlog it is
// about to abandon.
func (c *Controller) SetDraining(v bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.draining = v
	c.mu.Unlock()
}

// Acquire requests weight units of capacity, queueing up to the wait bound
// (or ctx's deadline, whichever is sooner). On admission it returns a
// release function and Admitted; on shed it returns a nil release and the
// shed classification. A nil Controller admits everything with a no-op
// release. Weights above capacity are clamped so an expensive request is
// admittable at all.
func (c *Controller) Acquire(ctx context.Context, weight int) (release func(), outcome Outcome) {
	if c == nil {
		return func() {}, Admitted
	}
	if weight <= 0 {
		weight = 1
	}
	if weight > c.capacity {
		weight = c.capacity
	}

	c.mu.Lock()
	// Fast path: capacity free and nobody queued ahead (FIFO — a lighter
	// request must not starve a heavier one already waiting).
	if c.waiters.Len() == 0 && c.tokens >= weight {
		c.tokens -= weight
		c.mu.Unlock()
		c.admitted.Add(1)
		return c.releaseFunc(weight), Admitted
	}
	if c.draining {
		c.mu.Unlock()
		c.shedDraining.Add(1)
		return nil, ShedDraining
	}
	if c.waiters.Len() >= c.maxQueue {
		c.mu.Unlock()
		c.shedQueueFull.Add(1)
		return nil, ShedQueueFull
	}
	w := &waiter{weight: weight, ready: make(chan struct{})}
	elem := c.waiters.PushBack(w)
	c.mu.Unlock()

	timer := time.NewTimer(c.maxWait)
	defer timer.Stop()
	select {
	case <-w.ready:
		c.admitted.Add(1)
		return c.releaseFunc(weight), Admitted
	case <-timer.C:
	case <-ctx.Done():
	}

	// Deadline (or caller abandonment). The grant may have raced us: take
	// it if so, otherwise leave the queue.
	c.mu.Lock()
	if w.granted {
		c.mu.Unlock()
		c.admitted.Add(1)
		return c.releaseFunc(weight), Admitted
	}
	c.waiters.Remove(elem)
	// Removing a heavy head may unblock lighter waiters behind it.
	c.grantLocked()
	c.mu.Unlock()
	c.shedTimeout.Add(1)
	return nil, ShedTimeout
}

func (c *Controller) releaseFunc(weight int) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			c.tokens += weight
			if c.tokens > c.capacity {
				c.tokens = c.capacity
			}
			c.grantLocked()
			c.mu.Unlock()
		})
	}
}

// grantLocked hands tokens to queued waiters in FIFO order while they fit.
func (c *Controller) grantLocked() {
	for {
		front := c.waiters.Front()
		if front == nil {
			return
		}
		w := front.Value.(*waiter)
		if c.tokens < w.weight {
			return
		}
		c.tokens -= w.weight
		w.granted = true
		close(w.ready)
		c.waiters.Remove(front)
	}
}

// RetryAfterHint is the Retry-After duration a shed response should carry:
// the base hint scaled up with queue occupancy, so clients back off harder
// the deeper the overload.
func (c *Controller) RetryAfterHint() time.Duration {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	queued := c.waiters.Len()
	c.mu.Unlock()
	d := c.retryAfter
	if c.maxQueue > 0 && queued > 0 {
		d += time.Duration(float64(c.retryAfter) * 3 * float64(queued) / float64(c.maxQueue))
	}
	return d
}

// Stats snapshots the controller counters.
func (c *Controller) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	inflight := c.capacity - c.tokens
	queued := c.waiters.Len()
	c.mu.Unlock()
	return Stats{
		Capacity:      c.capacity,
		Inflight:      inflight,
		Queued:        queued,
		Admitted:      c.admitted.Load(),
		ShedQueueFull: c.shedQueueFull.Load(),
		ShedTimeout:   c.shedTimeout.Load(),
		ShedDraining:  c.shedDraining.Load(),
	}
}
