// Package guard is the tenant-protection layer of the daemon: per-tenant
// token-bucket rate limits, per-tenant concurrent-run quotas, and a global
// admission gate that sheds load instead of queueing it.
//
// The three controls compose, cheapest first, on the expensive request
// paths (verification runs, session creation, answer posts):
//
//  1. RateLimiter.Allow — is this tenant sending too fast? (429,
//     Retry-After tells the client when the bucket refills)
//  2. Quota.Acquire — does this tenant already hold its share of
//     concurrent runs? (429; capacity frees when a run finishes)
//  3. Gate.Enter — is the process as a whole at its in-flight bound?
//     (503; the daemon is degraded for everyone, not just this tenant)
//
// Every rejection is O(1) and happens before any engine, session or store
// work: a hostile tenant exceeding its quota burns a map lookup per
// request, not a worker pool. Nothing in this package queues — a request
// is admitted now or rejected now, so overload can never grow an unbounded
// backlog of waiting goroutines.
package guard

import (
	"sync"
	"sync/atomic"
	"time"
)

// RateLimiter is a per-key token bucket: each key accrues rate tokens per
// second up to burst, and each Allow spends one. The zero value is not
// usable; nil (or rate <= 0) from NewRateLimiter means "unlimited" and
// every Allow succeeds — callers can keep a single code path.
type RateLimiter struct {
	rate  float64 // tokens per second
	burst float64
	clock func() time.Time

	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

// NewRateLimiter builds a limiter granting rate requests/second with the
// given burst per key. rate <= 0 returns nil — an unlimited limiter.
// burst < 1 is raised to 1 (a bucket that can never hold a whole token
// would reject everything). clock overrides the time source for tests;
// nil means time.Now.
func NewRateLimiter(rate, burst float64, clock func() time.Time) *RateLimiter {
	if rate <= 0 {
		return nil
	}
	if burst < 1 {
		burst = 1
	}
	if clock == nil {
		clock = time.Now
	}
	return &RateLimiter{rate: rate, burst: burst, clock: clock, buckets: make(map[string]*bucket)}
}

// Allow spends one token from key's bucket. When the bucket is empty it
// reports ok=false and how long until the next token accrues — the
// Retry-After the HTTP layer should send. A nil limiter always allows.
func (l *RateLimiter) Allow(key string) (ok bool, retryAfter time.Duration) {
	if l == nil {
		return true, 0
	}
	now := l.clock()
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.buckets[key]
	if b == nil {
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[key] = b
	} else {
		b.tokens += float64(now.Sub(b.last).Seconds() * l.rate)
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / l.rate * float64(time.Second))
}

// Quota caps concurrent runs per key. Acquire either admits immediately
// (returning a release closure) or rejects — it never blocks. A nil Quota
// (max <= 0 from NewQuota) admits everything.
type Quota struct {
	max int

	mu       sync.Mutex
	inflight map[string]int
}

// NewQuota builds a quota admitting max concurrent acquisitions per key;
// max <= 0 returns nil, the unlimited quota.
func NewQuota(max int) *Quota {
	if max <= 0 {
		return nil
	}
	return &Quota{max: max, inflight: make(map[string]int)}
}

// Acquire claims one slot under key. On success release returns the slot
// (idempotent: extra calls are no-ops). On rejection release is nil.
func (q *Quota) Acquire(key string) (release func(), ok bool) {
	if q == nil {
		return func() {}, true
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.inflight[key] >= q.max {
		return nil, false
	}
	q.inflight[key]++
	var once sync.Once
	return func() {
		once.Do(func() {
			q.mu.Lock()
			defer q.mu.Unlock()
			if q.inflight[key] <= 1 {
				delete(q.inflight, key)
			} else {
				q.inflight[key]--
			}
		})
	}, true
}

// InFlight reports key's current slot count.
func (q *Quota) InFlight(key string) int {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.inflight[key]
}

// GateStats is a point-in-time admission summary for health reporting.
type GateStats struct {
	// InFlight is the number of admitted requests currently executing.
	InFlight int64 `json:"in_flight"`
	// Max is the admission bound (0 = unlimited).
	Max int64 `json:"max"`
	// Shed counts rejections over the gate's lifetime.
	Shed uint64 `json:"shed_total"`
	// Shedding reports whether the gate is at its bound right now.
	Shedding bool `json:"shedding"`
}

// Gate is the global admission bound: at most max requests execute at
// once, and everything beyond that is rejected immediately (the HTTP
// layer maps it to 503) — never queued, so overload cannot accumulate
// goroutines. The hot path is two atomics.
//
// Unlike the limiter and quota, an unbounded gate (max <= 0) is NOT nil:
// it still counts admissions without ever shedding, because Drain — the
// shutdown primitive — must work whether or not admission is bounded.
// A nil Gate is still safe and admits everything.
type Gate struct {
	max  int64 // 0 = unbounded (count, never shed)
	n    atomic.Int64
	shed atomic.Uint64
}

// NewGate builds an admission gate with the given in-flight bound;
// max <= 0 builds an unbounded gate that counts but never sheds.
func NewGate(max int) *Gate {
	if max < 0 {
		max = 0
	}
	return &Gate{max: int64(max)}
}

// Enter attempts admission. On success leave returns the slot (idempotent).
// On rejection leave is nil and the shed counter advances.
func (g *Gate) Enter() (leave func(), ok bool) {
	if g == nil {
		return func() {}, true
	}
	if n := g.n.Add(1); g.max > 0 && n > g.max {
		g.n.Add(-1)
		g.shed.Add(1)
		return nil, false
	}
	var once sync.Once
	return func() { once.Do(func() { g.n.Add(-1) }) }, true
}

// Drain waits until no admitted request is executing, polling the
// in-flight count, or until timeout. It reports whether the gate emptied.
// Shutdown uses it between cancelling in-flight run contexts and closing
// the store: once the gate is empty no handler can be mid-journal-append.
// A nil Gate is always drained.
func (g *Gate) Drain(timeout time.Duration) bool {
	if g == nil {
		return true
	}
	deadline := time.Now().Add(timeout)
	for {
		if g.n.Load() == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return g.n.Load() == 0
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Stats reports the gate's current state; zero-valued for a nil gate.
func (g *Gate) Stats() GateStats {
	if g == nil {
		return GateStats{}
	}
	n := g.n.Load()
	return GateStats{InFlight: n, Max: g.max, Shed: g.shed.Load(), Shedding: g.max > 0 && n >= g.max}
}
