package core

import (
	"fmt"
	"sync"
	"testing"

	"github.com/repro/scrutinizer/internal/table"
)

func testCorpusPair(t *testing.T) (*table.Corpus, *table.Corpus) {
	t.Helper()
	mk := func() *table.Corpus {
		c := table.NewCorpus()
		r := table.MustNewRelation("R", "Index", []string{"2017"})
		if err := r.AddRow("k", []float64{1}); err != nil {
			t.Fatal(err)
		}
		if err := c.Add(r); err != nil {
			t.Fatal(err)
		}
		return c
	}
	return mk(), mk()
}

// TestQueryCacheGenerationFlushResetsBytes pins the byte accounting across
// generation flushes: a get() at a new generation must drop the retained
// bytes along with the entries, or eviction eventually degrades the cache
// to a single entry for the life of the process.
func TestQueryCacheGenerationFlushResetsBytes(t *testing.T) {
	c, _ := testCorpusPair(t)
	qc := NewQueryCache()
	big := &tentEntry{
		stride:   1,
		explored: 4,
		complete: true,
		attempts: make([]int32, 4),
		slots:    make([]int32, 4),
		values:   make([]float64, 4),
	}
	qc.put(c, 1, "k1", big)
	if got := qc.totalBytes(); got != big.size() {
		t.Fatalf("bytes = %d, want %d", got, big.size())
	}
	// get() at a newer generation flushes entries AND bytes.
	if _, ok := qc.get(c, 2, "k1", 10); ok {
		t.Fatal("stale-generation entry served")
	}
	if got := qc.totalBytes(); got != 0 {
		t.Fatalf("bytes after generation flush = %d, want 0", got)
	}
	qc.put(c, 2, "k2", big)
	if got := qc.totalBytes(); got != big.size() {
		t.Fatalf("bytes accumulated stale residue: %d, want %d", got, big.size())
	}
	if got := qc.totalEntries(); got != 1 {
		t.Fatalf("entries = %d, want 1", got)
	}
}

// TestQueryCacheConcurrentStats hammers get/put/entry from many goroutines
// while others poll Stats(), under -race: the hit/miss counters are atomics
// and Stats aggregates per-shard state, so no interleaving may race or
// lose counts. The final hit+miss total must equal the exact number of
// get() calls issued (entry counts nothing).
func TestQueryCacheConcurrentStats(t *testing.T) {
	c, _ := testCorpusPair(t)
	qc := NewQueryCache()
	gen := c.Generation()

	const workers = 8
	const opsPerWorker = 2000
	var hammer, pollers sync.WaitGroup
	stop := make(chan struct{})
	// Stats pollers run for the whole hammer window.
	for p := 0; p < 2; p++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := qc.Stats()
				if s.Hits+s.Misses > workers*opsPerWorker {
					t.Errorf("counters overran: hits=%d misses=%d", s.Hits, s.Misses)
					return
				}
			}
		}()
	}
	for w := 0; w < workers; w++ {
		hammer.Add(1)
		go func(w int) {
			defer hammer.Done()
			for i := 0; i < opsPerWorker; i++ {
				key := fmt.Sprintf("k%d", (w*opsPerWorker+i)%64)
				if _, ok := qc.get(c, gen, key, 1); !ok {
					qc.put(c, gen, key, &tentEntry{stride: 1, explored: 1, complete: true})
				}
				qc.entry(c, gen, key)
			}
		}(w)
	}
	hammer.Wait()
	close(stop)
	pollers.Wait()

	s := qc.Stats()
	if got := s.Hits + s.Misses; got != workers*opsPerWorker {
		t.Fatalf("hits+misses = %d, want %d (lost updates)", got, workers*opsPerWorker)
	}
	if s.Shards != QueryCacheShards {
		t.Fatalf("Stats.Shards = %d, want %d", s.Shards, QueryCacheShards)
	}
	if s.Entries == 0 || s.Entries > 64 {
		t.Fatalf("Entries = %d, want in (0, 64]", s.Entries)
	}
}

// TestQueryCacheShardedEviction pins that the per-shard caps still bound
// the cache globally: pushing far more keys than queryCacheCap leaves at
// most queryCacheCap entries, and byte accounting stays consistent with
// the surviving entries.
func TestQueryCacheShardedEviction(t *testing.T) {
	c, _ := testCorpusPair(t)
	qc := NewQueryCache()
	gen := c.Generation()
	entry := func() *tentEntry {
		return &tentEntry{
			stride: 1, explored: 1, complete: true,
			attempts: make([]int32, 2), slots: make([]int32, 2), values: make([]float64, 2),
		}
	}
	const keys = 4 * queryCacheCap
	for i := 0; i < keys; i++ {
		qc.put(c, gen, fmt.Sprintf("k%06d", i), entry())
	}
	n := qc.totalEntries()
	if n > queryCacheCap {
		t.Fatalf("entries = %d, want <= %d", n, queryCacheCap)
	}
	if n == 0 {
		t.Fatal("eviction emptied the cache")
	}
	if got, want := qc.totalBytes(), n*entry().size(); got != want {
		t.Fatalf("bytes = %d, want %d (%d entries x %d)", got, want, n, entry().size())
	}
}

// TestQueryCacheCorpusOwnershipGuard: slot tuples are only meaningful
// against the corpus they were enumerated from; a differently owned corpus
// with a colliding generation must flush, never serve.
func TestQueryCacheCorpusOwnershipGuard(t *testing.T) {
	a, b := testCorpusPair(t)
	if a.Generation() != b.Generation() {
		t.Fatal("fixture corpora should share a generation for the collision")
	}
	qc := NewQueryCache()
	entry := &tentEntry{stride: 1, explored: 1, complete: true}
	gen := a.Generation()
	qc.put(a, gen, "k", entry)
	if _, ok := qc.get(a, gen, "k", 10); !ok {
		t.Fatal("owner corpus missed its own entry")
	}
	if _, ok := qc.get(b, gen, "k", 10); ok {
		t.Fatal("entry computed for corpus A served for corpus B")
	}
}
