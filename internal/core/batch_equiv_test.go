package core

import (
	"bytes"
	"context"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"github.com/repro/scrutinizer/internal/claims"
	"github.com/repro/scrutinizer/internal/crowd"
	"github.com/repro/scrutinizer/internal/embed"
	"github.com/repro/scrutinizer/internal/feature"
	"github.com/repro/scrutinizer/internal/worldgen"
)

// batchFixture builds one world and feature pipeline that several engines
// (batch-scored, sequential-scored, different formula fan-outs) share, so
// every equivalence test below compares engines over identical inputs.
func batchFixture(t testing.TB) (*worldgen.World, *feature.Pipeline) {
	t.Helper()
	w, err := worldgen.Generate(tinyWorld())
	if err != nil {
		t.Fatal(err)
	}
	var sentences, texts []string
	for _, c := range w.Document.Claims {
		sentences = append(sentences, c.Sentence)
		texts = append(texts, c.Text)
	}
	pipe, err := feature.Fit(sentences, texts, feature.Config{
		Embedding: embed.Config{Dim: 24, Seed: 5},
		MinDF:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w, pipe
}

// engineOver builds an engine over the fixture with an optional config hook.
func engineOver(t testing.TB, w *worldgen.World, pipe *feature.Pipeline, mutate func(*Config)) *Engine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Classifier.Epochs = 4
	if mutate != nil {
		mutate(&cfg)
	}
	e, err := NewEngine(w.Corpus, pipe, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// mustEqualRuns asserts two full verification results are bit-identical.
func mustEqualRuns(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Seconds != b.Seconds || a.Batches != b.Batches {
		t.Fatalf("%s: seconds/batches %v/%d vs %v/%d", label, a.Seconds, a.Batches, b.Seconds, b.Batches)
	}
	if len(a.Outcomes) != len(b.Outcomes) {
		t.Fatalf("%s: outcome counts %d vs %d", label, len(a.Outcomes), len(b.Outcomes))
	}
	for i := range a.Outcomes {
		x, y := a.Outcomes[i], b.Outcomes[i]
		if x.ClaimID != y.ClaimID || x.Verdict != y.Verdict || x.Seconds != y.Seconds ||
			x.Value != y.Value || x.Suggestion != y.Suggestion ||
			x.HasSuggestion != y.HasSuggestion || x.Screens != y.Screens {
			t.Fatalf("%s: outcome %d diverged:\n  %+v\n  %+v", label, i, x, y)
		}
		xq, yq := "", ""
		if x.Query != nil {
			xq = x.Query.SQL()
		}
		if y.Query != nil {
			yq = y.Query.SQL()
		}
		if xq != yq {
			t.Fatalf("%s: outcome %d query differs:\n  %q\n  %q", label, i, xq, yq)
		}
	}
}

// TestAssessBatchMatchesSequential: the batch assessment fill (assessMany,
// one dense scoring pass per property kind) must produce scheduler inputs
// bit-identical to the legacy per-claim path, untrained, trained, after a
// partial warm-up (only never-seen claims get batch-scored), and across a
// retrain that bumps the model generation.
func TestAssessBatchMatchesSequential(t *testing.T) {
	w, pipe := batchFixture(t)
	batch := engineOver(t, w, pipe, nil)
	seq := engineOver(t, w, pipe, nil)
	seq.seqAssess = true

	ids := make([]int, 0, len(w.Document.Claims))
	pool := make(map[int]*claims.Claim, len(w.Document.Claims))
	for _, c := range w.Document.Claims {
		ids = append(ids, c.ID)
		pool[c.ID] = c
	}

	check := func(stage string, sub []int) {
		t.Helper()
		cb, ub := batch.assessAll(context.Background(), sub, pool, 4)
		cs, us := seq.assessAll(context.Background(), sub, pool, 1)
		for i := range sub {
			if cb[i] != cs[i] || ub[i] != us[i] {
				t.Fatalf("%s: claim %d batch (%v, %v) != sequential (%v, %v)",
					stage, sub[i], cb[i], ub[i], cs[i], us[i])
			}
		}
	}

	check("untrained", ids)
	train := func(cs []*claims.Claim) {
		t.Helper()
		if err := batch.Train(cs); err != nil {
			t.Fatal(err)
		}
		if err := seq.Train(cs); err != nil {
			t.Fatal(err)
		}
	}
	train(w.Document.Claims)
	// Warm a prefix first: the following full pass must batch-score only
	// the claims the cache has never seen at this generation.
	check("trained prefix", ids[:len(ids)/3])
	check("trained full", ids)
	// Same generation again: pure cache reads on both paths.
	check("trained cached", ids)
	// Retrain bumps the generation; every claim is stale again.
	train(w.Document.Claims[:len(w.Document.Claims)/2])
	check("retrained", ids)
}

// TestVerifyBatchScoredMatchesSequential is the DocumentRun acceptance
// criterion: a full Algorithm 1 run on the batch-scored scheduler produces
// verdicts, crowd seconds, screens and queries bit-identical to the legacy
// per-claim scoring path. Run under -race this also exercises the batch
// fill's concurrency.
func TestVerifyBatchScoredMatchesSequential(t *testing.T) {
	w, pipe := batchFixture(t)
	vc := VerifyConfig{BatchSize: 15, SectionReadCost: 30, Parallelism: 4}

	run := func(e *Engine) *Result {
		t.Helper()
		team, err := crowd.NewTeam("W", 3, 0.97, 8)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Verify(context.Background(), w.Document, team, vc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	seq := engineOver(t, w, pipe, nil)
	seq.seqAssess = true
	want := run(seq)
	got := run(engineOver(t, w, pipe, nil))
	mustEqualRuns(t, "batch-scored vs per-claim", want, got)
}

// TestVerifyFormulaParallelismEquivalence: parallel Algorithm 2 enumeration
// across a claim's candidate formulas must not change any result. The
// fan-out is forced explicitly — on a single-core runner the default
// degrades to sequential, which would make this test vacuous.
func TestVerifyFormulaParallelismEquivalence(t *testing.T) {
	w, pipe := batchFixture(t)
	vc := VerifyConfig{BatchSize: 15, SectionReadCost: 30, Parallelism: 2}

	run := func(formulaPar int) *Result {
		t.Helper()
		e := engineOver(t, w, pipe, func(c *Config) { c.FormulaParallelism = formulaPar })
		team, err := crowd.NewTeam("W", 3, 0.97, 8)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Verify(context.Background(), w.Document, team, vc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	want := run(1)
	got := run(4)
	mustEqualRuns(t, "formula fan-out 4 vs sequential", want, got)
}

// TestQueryCacheStatsIndependentOfFormulaParallelism: every cache lookup
// counts exactly once, as a hit or a miss, whether or not the formula
// prefetch filled the entry first — so a verification over a fresh cache
// reports the same figures with and without the fan-out (the prefetch used
// to probe and fill uncounted, turning its misses into serve-pass hits).
func TestQueryCacheStatsIndependentOfFormulaParallelism(t *testing.T) {
	w, pipe := batchFixture(t)
	vc := VerifyConfig{BatchSize: 15, SectionReadCost: 30, Parallelism: 2}

	stats := func(formulaPar int) QueryCacheStats {
		t.Helper()
		e := engineOver(t, w, pipe, func(c *Config) { c.FormulaParallelism = formulaPar })
		team, err := crowd.NewTeam("W", 3, 0.97, 8)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Verify(context.Background(), w.Document, team, vc); err != nil {
			t.Fatal(err)
		}
		return e.qcache.Stats()
	}

	seq, par := stats(1), stats(2)
	if seq.Misses == 0 {
		t.Fatalf("sequential run over a fresh cache counted no misses: %+v", seq)
	}
	if seq.Hits != par.Hits || seq.Misses != par.Misses {
		t.Fatalf("hits/misses: sequential %d/%d, formula fan-out 2 %d/%d",
			seq.Hits, seq.Misses, par.Hits, par.Misses)
	}
}

// goid extracts the current goroutine's ID from the runtime stack header —
// test-only plumbing to observe which goroutine ran a runPool job.
func goid() uint64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	// "goroutine 123 [...":
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	if i := bytes.IndexByte(buf, ' '); i >= 0 {
		buf = buf[:i]
	}
	id, _ := strconv.ParseUint(string(buf), 10, 64)
	return id
}

// TestRunPoolInlineAndOrdered pins the runPool fast paths: a single job
// runs inline on the caller's goroutine regardless of requested fan-out,
// and parallelism <= 1 runs all jobs inline in index order.
func TestRunPoolInlineAndOrdered(t *testing.T) {
	caller := goid()

	var oneOn uint64
	runPool(1, 64, func(i int) { oneOn = goid() })
	if oneOn != caller {
		t.Fatalf("runPool(1, 64) ran job on goroutine %d, want caller %d", oneOn, caller)
	}

	var order []int
	runPool(5, 1, func(i int) {
		if g := goid(); g != caller {
			t.Errorf("sequential runPool ran job %d on goroutine %d, want caller %d", i, g, caller)
		}
		order = append(order, i)
	})
	for i, got := range order {
		if got != i {
			t.Fatalf("sequential runPool order = %v", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("sequential runPool ran %d jobs, want 5", len(order))
	}

	// n == 0 must be a no-op, not a hang.
	runPool(0, 4, func(i int) { t.Error("runPool(0, ...) invoked fn") })
}

// TestRunPoolCapsWorkersAtJobs: asking for a huge fan-out over two jobs
// must spawn (at most) two workers, never the requested 64. Both jobs
// block until both have started, forcing both workers live, and the second
// arrival samples the goroutine count.
func TestRunPoolCapsWorkersAtJobs(t *testing.T) {
	before := runtime.NumGoroutine()
	var mu sync.Mutex
	started := 0
	during := 0
	barrier := make(chan struct{})
	runPool(2, 64, func(i int) {
		mu.Lock()
		started++
		last := started == 2
		mu.Unlock()
		if last {
			during = runtime.NumGoroutine()
			close(barrier)
		} else {
			<-barrier
		}
	})
	if extra := during - before; extra > 8 {
		t.Fatalf("runPool(2, 64) grew goroutines by %d, want ~2 (workers capped at job count)", extra)
	}
	if started != 2 {
		t.Fatalf("ran %d jobs, want 2", started)
	}
}

// TestSpawnReleaseReuse: an engine released after a full run (which
// retrained it at every batch barrier) and re-spawned from the snapshot
// must behave bit-identically to a pristine spawn, and re-priming clears
// the per-run caches.
func TestSpawnReleaseReuse(t *testing.T) {
	w, pipe := batchFixture(t)
	e := engineOver(t, w, pipe, nil)
	if err := e.Train(w.Document.Claims); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()

	run := func(eng *Engine) *Result {
		t.Helper()
		team, err := crowd.NewTeam("W", 3, 0.97, 8)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Verify(context.Background(), w.Document, team, VerifyConfig{BatchSize: 20})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	want := run(snap.Spawn()) // pristine reference, never released

	// Deterministic re-prime check (sync.Pool reuse is best-effort, so the
	// dirty->pristine transition is exercised directly too).
	dirty := snap.Spawn()
	run(dirty)
	if dirty.Generation() == snap.Generation() {
		t.Fatal("run should have retrained the spawned engine past the snapshot generation")
	}
	dirty.reprime(snap)
	mustEqualRuns(t, "re-primed dirty engine vs pristine spawn", want, run(dirty))

	// Release / Spawn round trip through the pool.
	used := snap.Spawn()
	run(used)
	used.Release()
	if len(used.featCache) != 0 || len(used.assessed) != 0 {
		t.Fatal("Release must clear the per-run caches")
	}
	re := snap.Spawn()
	if re == used {
		t.Log("pool recycled the released engine")
	}
	mustEqualRuns(t, "respawn after release vs pristine spawn", want, run(re))

	// Release is a no-op on double release, non-spawned and nil engines.
	re.Release()
	re.Release()
	e.Release()
	var nilEngine *Engine
	nilEngine.Release()
}
