package simcache

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
)

// Counters is a snapshot of a cache's activity. Snapshots are taken under
// the cache mutex, so the fields are mutually consistent (e.g. Hits +
// Shared + Misses counts exactly the lookups that had completed when the
// snapshot was taken) — /metrics scrapes mid-sweep see one
// coherent state, not a mix of before/after values.
type Counters struct {
	Hits    int64 // lookups answered from a completed entry
	Shared  int64 // lookups that joined an in-flight computation
	Misses  int64 // lookups that ran the computation
	Errors  int64 // computations that returned an error (not retained)
	Entries int64 // completed entries currently retained
	Bytes   int64 // estimated retained payload size (via SizeFunc)
}

// Cache outcome strings reported by DoCtx (and attached to cache spans).
const (
	Hit    = "hit"    // answered from a completed entry
	Shared = "shared" // joined another caller's in-flight computation
	Miss   = "miss"   // this call ran the computation
)

// Cache is a process-wide, concurrency-safe memoization table with
// singleflight semantics: concurrent lookups of the same key run the
// computation once and share its result. Successful results are retained
// forever (experiment working sets are bounded by the workload suite);
// errors are returned to every waiter but not retained, so a transient
// failure can be retried.
type Cache[K comparable, V any] struct {
	// Name labels this cache in trace spans and metrics ("benches",
	// "results", ...). Set once at construction time.
	Name string

	mu      sync.Mutex
	entries map[K]*entry[V]
	c       Counters // guarded by mu (minus Entries, derived from entries)

	// SizeFunc estimates the retained size of a value for the Bytes
	// counter. Nil means sizes are not tracked.
	SizeFunc func(V) int64

	// disabled makes Do bypass the table entirely (the -nocache escape
	// hatch): every call computes fresh and retains nothing.
	disabled atomic.Bool
}

type entry[V any] struct {
	done chan struct{} // closed when the computation finishes
	val  V
	err  error
}

// New creates an empty cache.
func New[K comparable, V any]() *Cache[K, V] {
	return &Cache[K, V]{entries: make(map[K]*entry[V])}
}

// Named creates an empty cache labeled name in spans and metrics.
func Named[K comparable, V any](name string) *Cache[K, V] {
	c := New[K, V]()
	c.Name = name
	return c
}

// SetDisabled toggles cache bypass.
func (c *Cache[K, V]) SetDisabled(d bool) { c.disabled.Store(d) }

// Disabled reports whether the cache is bypassed.
func (c *Cache[K, V]) Disabled() bool { return c.disabled.Load() }

func (c *Cache[K, V]) spanName() string {
	if c.Name == "" {
		return "cache"
	}
	return "cache." + c.Name
}

// Do returns the cached value for key, computing it with compute if absent.
// Concurrent calls for the same key block on a single computation.
func (c *Cache[K, V]) Do(key K, compute func() (V, error)) (V, error) {
	v, _, err := c.do(context.Background(), key, func(context.Context) (V, error) { return compute() })
	return v, err
}

// DoCtx is Do with outcome attribution and a trace span: the span covers
// the lookup itself — a completed-entry hit is near-instant, a shared
// lookup spans the singleflight wait, and a miss spans the computation
// (which receives the span's context, so its own spans nest underneath).
// With the cache disabled every call computes fresh and reports Miss.
func (c *Cache[K, V]) DoCtx(ctx context.Context, key K, compute func(context.Context) (V, error)) (V, string, error) {
	ctx, sp := metrics.StartSpan(ctx, c.spanName())
	v, outcome, err := c.do(ctx, key, compute)
	sp.SetAttr("outcome", outcome)
	sp.End()
	return v, outcome, err
}

func (c *Cache[K, V]) do(ctx context.Context, key K, compute func(context.Context) (V, error)) (V, string, error) {
	if c.disabled.Load() {
		v, err := compute(ctx)
		return v, Miss, err
	}
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		select {
		case <-e.done:
			c.c.Hits++
			c.mu.Unlock()
			return e.val, Hit, e.err
		default:
			c.c.Shared++
			c.mu.Unlock()
			<-e.done
			return e.val, Shared, e.err
		}
	}
	e := &entry[V]{done: make(chan struct{})}
	c.entries[key] = e
	c.c.Misses++
	c.mu.Unlock()

	e.val, e.err = compute(ctx)
	close(e.done)
	c.mu.Lock()
	if e.err != nil {
		c.c.Errors++
		delete(c.entries, key) // do not retain failures
	} else if c.SizeFunc != nil {
		c.c.Bytes += c.SizeFunc(e.val)
	}
	c.mu.Unlock()
	return e.val, Miss, e.err
}

// Get returns the completed value for key, if present.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	var zero V
	if c.disabled.Load() {
		return zero, false
	}
	c.mu.Lock()
	e, ok := c.entries[key]
	c.mu.Unlock()
	if !ok {
		return zero, false
	}
	select {
	case <-e.done:
		if e.err != nil {
			return zero, false
		}
		return e.val, true
	default:
		return zero, false
	}
}

// Stats returns a consistent snapshot of the cache counters, taken in one
// critical section.
func (c *Cache[K, V]) Stats() Counters {
	c.mu.Lock()
	out := c.c
	out.Entries = int64(len(c.entries))
	c.mu.Unlock()
	return out
}

// Reset drops every entry and zeroes the counters.
func (c *Cache[K, V]) Reset() {
	c.mu.Lock()
	c.entries = make(map[K]*entry[V])
	c.c = Counters{}
	c.mu.Unlock()
}
