package core

import (
	"encoding/binary"
	"hash/maphash"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/repro/scrutinizer/internal/table"
)

// QueryCache memoizes tentative execution (Algorithm 2's inner loop): for a
// (formula, validated context) pair over one corpus generation, the set of
// successful candidate assignments — integer slot tuples plus their values —
// is the same no matter which claim, session or goroutine asks. Screens
// repeated within a session, restores replaying an answer log, and
// concurrent sessions over one shared corpus all hit the same entries
// instead of recomputing the cell math.
//
// Entries are keyed by the canonical formula string and the exact context
// (relation/key/attribute lists, order-sensitive, since enumeration order
// is part of the contract). A cache is safe for concurrent use and may be
// shared across engines serving one corpus (scrutinizerd does); an engine
// constructed without a shared cache gets a private one.
//
// Concurrency: the cache is the hottest shared structure under multi-tenant
// load (mutex profiles of 8 concurrent runs over one corpus put ~90% of all
// lock delay here when it was a single mutex), so entries are sharded by
// key hash into QueryCacheShards stripes with one mutex each — concurrent
// engines only collide when they touch the same stripe at the same instant.
// Hit/miss counters are atomics, off every lock entirely. The (owner,
// generation) epoch is guarded by an RWMutex taken shared on the hot path:
// lookups hold the read side (epoch checks never serialize each other) and
// only an actual epoch change — a corpus mutation, which the service layer
// already restricts to corpora with no verifiers — takes the write side to
// flush all shards atomically.
//
// Consistency: every entry records the corpus generation it was computed
// under; the first access at a newer generation flushes the cache. Budget
// semantics are preserved exactly — an entry remembers how many attempts
// its enumeration explored, and a request whose assignment budget exceeds
// an incomplete entry re-enumerates rather than serving a truncated view.
type QueryCache struct {
	// epochMu guards owner/gen. Shard operations run under the read lock,
	// so an epoch flush (write lock) is atomic with respect to every
	// concurrent get/put.
	epochMu sync.RWMutex
	owner   *table.Corpus // corpus the entries were computed from
	gen     uint64

	hits   atomic.Uint64
	misses atomic.Uint64

	shards [QueryCacheShards]qcShard
	seed   maphash.Seed
}

// qcShard is one lock stripe: a slice of the key space with its own FIFO
// eviction order and byte accounting.
type qcShard struct {
	mu      sync.Mutex
	entries map[string]*tentEntry
	order   []string // FIFO eviction order
	bytes   int      // approximate retained entry bytes
}

// QueryCacheShards is the number of lock stripes entries spread over. 16
// stripes make same-instant collisions between concurrent engines rare at
// realistic tenant counts while keeping the flush walk and per-shard map
// overhead negligible. Exported so benchmark metadata can record the
// sharding the numbers were measured under.
const QueryCacheShards = 16

// queryCacheCap bounds distinct (formula, context) entries and
// queryCacheMaxBytes bounds their retained memory (entries can reach a few
// hundred kilobytes at the default assignment budget, and context keys are
// ultimately user-driven through HTTP sessions) — FIFO eviction enforces
// both per shard, so a daemon's shared cache cannot be grown past ~32 MB by
// varied checker answers.
const (
	queryCacheCap      = 1024
	queryCacheMaxBytes = 32 << 20

	// Per-shard slices of the global caps.
	qcShardCap      = queryCacheCap / QueryCacheShards
	qcShardMaxBytes = queryCacheMaxBytes / QueryCacheShards
)

// NewQueryCache builds an empty cache. Share one per corpus across engines
// to deduplicate tentative execution between concurrent sessions.
func NewQueryCache() *QueryCache {
	qc := &QueryCache{seed: maphash.MakeSeed()}
	for i := range qc.shards {
		qc.shards[i].entries = make(map[string]*tentEntry)
	}
	return qc
}

// shard maps a key to its lock stripe.
func (qc *QueryCache) shard(key string) *qcShard {
	return &qc.shards[maphash.String(qc.seed, key)%QueryCacheShards]
}

// QueryCacheStats is a point-in-time cache summary for monitoring.
type QueryCacheStats struct {
	// Entries is the current number of memoized (formula, context) pairs,
	// summed over the shards.
	Entries int `json:"entries"`
	// Hits / Misses count lookups since process start.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// HitRate is Hits / (Hits + Misses), 0 when no lookups happened.
	HitRate float64 `json:"hit_rate"`
	// Generation is the corpus generation the entries were computed under.
	Generation uint64 `json:"generation"`
	// Shards is the number of lock stripes the entries spread over.
	Shards int `json:"shards"`
}

// Stats reports cache statistics, aggregating the per-shard state on read.
// Counters are atomics and each shard is locked only long enough to read
// its entry count, so Stats never stalls the lookup hot path — monitoring
// polls (healthz) are safe to hammer under load.
func (qc *QueryCache) Stats() QueryCacheStats {
	qc.epochMu.RLock()
	s := QueryCacheStats{
		Hits:       qc.hits.Load(),
		Misses:     qc.misses.Load(),
		Generation: qc.gen,
		Shards:     QueryCacheShards,
	}
	for i := range qc.shards {
		sh := &qc.shards[i]
		sh.mu.Lock()
		s.Entries += len(sh.entries)
		sh.mu.Unlock()
	}
	qc.epochMu.RUnlock()
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRate = float64(s.Hits) / float64(total)
	}
	return s
}

// totalEntries and totalBytes aggregate the shards (tests, accounting
// assertions).
func (qc *QueryCache) totalEntries() int {
	n := 0
	for i := range qc.shards {
		sh := &qc.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

func (qc *QueryCache) totalBytes() int {
	n := 0
	for i := range qc.shards {
		sh := &qc.shards[i]
		sh.mu.Lock()
		n += sh.bytes
		sh.mu.Unlock()
	}
	return n
}

// tentEntry is the memoized enumeration of one (formula, context) pair:
// the successful attempts in enumeration order, as canonical integer slot
// tuples plus values, and enough bookkeeping to reproduce the legacy
// budget accounting exactly.
type tentEntry struct {
	// stride is the slot-tuple width: len(aliases) + len(attrVars).
	stride int
	// explored is how many attempts the enumeration visited; complete
	// reports whether that was the whole assignment space (when false,
	// enumeration stopped at a budget and attempts beyond explored exist).
	explored int
	complete bool
	// attempts[i] is the 1-based attempt index of success i; slots holds
	// the tuples back to back (stride each); values the executed results.
	attempts []int32
	slots    []int32
	values   []float64
}

// usable reports whether the entry can serve a request with the given
// assignment budget without under-reporting attempts.
func (t *tentEntry) usable(budget int) bool {
	return t.complete || t.explored >= budget
}

// served reproduces generateForFormula's return accounting for a budget:
// how many successes fall inside it and what "used" to report.
func (t *tentEntry) served(budget int) (succ int, used int) {
	if t.complete && t.explored <= budget {
		return len(t.attempts), t.explored
	}
	// More attempts existed than the budget allows: the legacy loop
	// counted one over before bailing out.
	n := 0
	for n < len(t.attempts) && int(t.attempts[n]) <= budget {
		n++
	}
	return n, budget + 1
}

// tentKey builds the cache key for a formula string + context. Every
// component is length-prefixed, so no context string — which ultimately
// derives from user-supplied documents and crowd answers — can collide two
// distinct contexts onto one key.
func tentKey(fkey string, ctx Context) string {
	var sb strings.Builder
	sb.Grow(len(fkey) + 32)
	writeStr := func(s string) {
		var lenBuf [binary.MaxVarintLen64]byte
		sb.Write(lenBuf[:binary.PutUvarint(lenBuf[:], uint64(len(s)))])
		sb.WriteString(s)
	}
	writeStr(fkey)
	for _, part := range [][]string{ctx.Relations, ctx.Keys, ctx.Attrs} {
		var lenBuf [binary.MaxVarintLen64]byte
		sb.Write(lenBuf[:binary.PutUvarint(lenBuf[:], uint64(len(part)))])
		for _, s := range part {
			writeStr(s)
		}
	}
	return sb.String()
}

// enter validates the (corpus, generation) epoch and returns with the
// epoch read lock held — the caller MUST call qc.epochMu.RUnlock when its
// shard operation completes. The first access of a new epoch — a newer
// corpus generation, or (as a misuse guard) a differently owned corpus
// whose generation collides — takes the write lock and flushes every
// shard; slot tuples are only meaningful against the corpus and generation
// they were enumerated from.
func (qc *QueryCache) enter(c *table.Corpus, gen uint64) {
	for {
		qc.epochMu.RLock()
		if qc.owner == c && qc.gen == gen {
			return
		}
		qc.epochMu.RUnlock()
		qc.epochMu.Lock()
		if qc.owner != c || qc.gen != gen {
			qc.owner = c
			qc.gen = gen
			for i := range qc.shards {
				sh := &qc.shards[i]
				sh.mu.Lock()
				sh.entries = make(map[string]*tentEntry)
				sh.order = sh.order[:0]
				sh.bytes = 0
				sh.mu.Unlock()
			}
		}
		qc.epochMu.Unlock()
	}
}

// get returns a usable entry for the key at the corpus generation, counting
// the lookup as a hit or a miss; the budget decides usability (see
// tentEntry.usable).
func (qc *QueryCache) get(c *table.Corpus, gen uint64, key string, budget int) (*tentEntry, bool) {
	t := qc.entry(c, gen, key)
	ok := t != nil && t.usable(budget)
	qc.count(ok)
	if !ok {
		return nil, false
	}
	return t, true
}

// entry returns the stored entry for the key, usable at any budget or not,
// without counting a hit or a miss — the probe the parallel enumeration
// prefetch uses to find work (the serve pass afterwards does the counting).
func (qc *QueryCache) entry(c *table.Corpus, gen uint64, key string) *tentEntry {
	qc.enter(c, gen)
	defer qc.epochMu.RUnlock()
	sh := qc.shard(key)
	sh.mu.Lock()
	t := sh.entries[key]
	sh.mu.Unlock()
	return t
}

// count records one lookup's outcome.
func (qc *QueryCache) count(hit bool) {
	if hit {
		qc.hits.Add(1)
	} else {
		qc.misses.Add(1)
	}
}

// size approximates an entry's retained bytes (slices only; struct and map
// overhead are noise at these sizes).
func (t *tentEntry) size() int {
	return len(t.attempts)*4 + len(t.slots)*4 + len(t.values)*8
}

// put stores (or replaces) an entry computed at the corpus generation,
// evicting FIFO within the key's shard until both the entry-count and byte
// caps hold.
func (qc *QueryCache) put(c *table.Corpus, gen uint64, key string, t *tentEntry) {
	qc.enter(c, gen)
	defer qc.epochMu.RUnlock()
	sh := qc.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if prev, exists := sh.entries[key]; exists {
		sh.bytes -= prev.size()
	} else {
		sh.order = append(sh.order, key)
	}
	sh.entries[key] = t
	sh.bytes += t.size()
	for (len(sh.entries) > qcShardCap || sh.bytes > qcShardMaxBytes) && len(sh.order) > 1 {
		oldest := sh.order[0]
		sh.order = sh.order[1:]
		if victim, ok := sh.entries[oldest]; ok {
			sh.bytes -= victim.size()
			delete(sh.entries, oldest)
		}
	}
}
