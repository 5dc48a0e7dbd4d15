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
	"github.com/repro/scrutinizer/internal/planner"
	"github.com/repro/scrutinizer/internal/worldgen"
)

// batchFixture builds one world and feature pipeline that several engines
// (probed and unprobed runs, different formula fan-outs) share, so
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

// oracleAssess is the per-claim scorer the batch path is pinned against.
// It scores one claim with each model's TopK and Entropy, in PropertyKinds
// order, and builds the §5.1 plan from those options. It reads the
// engine's models but not its assessment cache.
func oracleAssess(e *Engine, c *claims.Claim) (cost, utility float64) {
	e.ensureFitted()
	f := e.Featurize(c)
	var props []planner.Property
	for _, k := range PropertyKinds() {
		m := e.models[k]
		utility += m.Entropy(f)
		var opts []planner.Option
		for _, p := range m.TopK(f, e.cfg.TopK) {
			opts = append(opts, planner.Option{Value: p.Label, Prob: p.Prob})
		}
		props = append(props, planner.Property{Name: k.String(), Options: opts, Required: k != PropFormula})
	}
	plan, err := planner.BuildPlan(planner.NewCandidateSpace(props), e.cfg.Cost)
	if err != nil {
		return e.cfg.Cost.ManualCost(), utility
	}
	return plan.ExpectedCost, utility
}

// mustMatchOracle scores ids through the scheduler's batch path and
// requires every (cost, utility) to be bit-identical to oracleAssess.
func mustMatchOracle(t *testing.T, stage string, e *Engine, ids []int, pool map[int]*claims.Claim) {
	t.Helper()
	costs, utils := e.assessAll(context.Background(), ids, pool, 4)
	for i, id := range ids {
		wc, wu := oracleAssess(e, pool[id])
		if costs[i] != wc || utils[i] != wu {
			t.Fatalf("%s: claim %d batch (%v, %v) != oracle (%v, %v)", stage, id, costs[i], utils[i], wc, wu)
		}
	}
}

// TestAssessBatchMatchesSequential: the batch assessment fill (assessMany,
// one dense scoring pass per property kind) must produce scheduler inputs
// bit-identical to the per-claim oracle, untrained, trained, after a
// partial warm-up (only never-seen claims get batch-scored), and across a
// retrain that bumps the model generation. A claim scored alone on a cache
// miss (assess) must match it too.
func TestAssessBatchMatchesSequential(t *testing.T) {
	w, pipe := batchFixture(t)
	e := engineOver(t, w, pipe, nil)

	ids := make([]int, 0, len(w.Document.Claims))
	pool := make(map[int]*claims.Claim, len(w.Document.Claims))
	for _, c := range w.Document.Claims {
		ids = append(ids, c.ID)
		pool[c.ID] = c
	}

	mustMatchOracle(t, "untrained", e, ids, pool)
	if err := e.Train(w.Document.Claims); err != nil {
		t.Fatal(err)
	}
	// Warm a prefix first: the following full pass must batch-score only
	// the claims the cache has never seen at this generation.
	mustMatchOracle(t, "trained prefix", e, ids[:len(ids)/3], pool)
	mustMatchOracle(t, "trained full", e, ids, pool)
	// Same generation again: pure cache reads.
	mustMatchOracle(t, "trained cached", e, ids, pool)
	// Retrain bumps the generation; every claim is stale again.
	if err := e.Train(w.Document.Claims[:len(w.Document.Claims)/2]); err != nil {
		t.Fatal(err)
	}
	mustMatchOracle(t, "retrained", e, ids, pool)

	// One claim at a time, each a cache miss on a clone with an empty
	// cache.
	single := e.Clone()
	for _, c := range w.Document.Claims {
		gc, gu := single.Assess(c)
		if wc, wu := oracleAssess(single, c); gc != wc || gu != wu {
			t.Fatalf("claim %d scored alone (%v, %v) != oracle (%v, %v)", c.ID, gc, gu, wc, wu)
		}
	}
}

// TestVerifyBatchScoredMatchesSequential pins the batch scorer over a full
// Algorithm 1 run, through the models each retrain barrier actually fits
// (warm starts and appended fits included): before the run and after
// every barrier, the scheduler's scores of every remaining claim are
// bit-identical to the per-claim oracle. The probe fills the assessment
// cache with the values the next round computes anyway, so the run's
// result must equal an unprobed run's. Run under -race this also
// exercises the batch fill's concurrency.
func TestVerifyBatchScoredMatchesSequential(t *testing.T) {
	w, pipe := batchFixture(t)
	pool := make(map[int]*claims.Claim, len(w.Document.Claims))
	for _, c := range w.Document.Claims {
		pool[c.ID] = c
	}

	run := func(e *Engine, probe bool) *Result {
		t.Helper()
		team, err := crowd.NewTeam("W", 3, 0.97, 8)
		if err != nil {
			t.Fatal(err)
		}
		verified := map[int]bool{}
		remaining := func() []int {
			var ids []int
			for _, c := range w.Document.Claims {
				if !verified[c.ID] {
					ids = append(ids, c.ID)
				}
			}
			return ids
		}
		barriers := 0
		vc := VerifyConfig{BatchSize: 15, SectionReadCost: 30, Parallelism: 4}
		if probe {
			mustMatchOracle(t, "before the run", e, remaining(), pool)
			vc.AfterBatch = func(batch, _ int, outcomes []*Outcome) {
				for _, o := range outcomes {
					verified[o.ClaimID] = true
				}
				if ids := remaining(); len(ids) > 0 {
					barriers++
					mustMatchOracle(t, "after barrier "+strconv.Itoa(batch), e, ids, pool)
				}
			}
		}
		res, err := e.Verify(context.Background(), w.Document, team, vc)
		if err != nil {
			t.Fatal(err)
		}
		if probe && barriers < 2 {
			t.Fatalf("probed %d barriers with claims remaining, want at least 2", barriers)
		}
		return res
	}

	want := run(engineOver(t, w, pipe, nil), false)
	got := run(engineOver(t, w, pipe, nil), true)
	mustEqualRuns(t, "probed vs unprobed run", want, got)
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

// TestSpawnReleaseReuse: an engine derived for a run is disposable. After
// a full run (which retrained its clone at every batch barrier) a fresh
// clone of the source still behaves bit-identically to a pristine one and
// starts with empty per-run caches; a clone taken from a clone before the
// middle one runs is unaffected by that run's retraining, since the
// models it shares are copied before they are written.
func TestSpawnReleaseReuse(t *testing.T) {
	w, pipe := batchFixture(t)
	e := engineOver(t, w, pipe, nil)
	if err := e.Train(w.Document.Claims); err != nil {
		t.Fatal(err)
	}
	vc := VerifyConfig{BatchSize: 20}

	want := verifyOn(t, e.Clone(), w.Document, vc) // pristine reference

	used := e.Clone()
	nested := used.Clone()
	verifyOn(t, used, w.Document, vc)
	if used.Generation() == e.Generation() {
		t.Fatal("run should have retrained the cloned engine past the source generation")
	}
	if nested.Generation() != e.Generation() {
		t.Fatalf("nested clone generation %d moved with its parent's run (source %d)", nested.Generation(), e.Generation())
	}
	mustEqualRuns(t, "clone of a clone after the middle run vs pristine clone", want, verifyOn(t, nested, w.Document, vc))

	re := e.Clone()
	if len(re.featCache) != 0 || len(re.assessed) != 0 {
		t.Fatal("a clone taken after a run must start with empty per-run caches")
	}
	mustEqualRuns(t, "clone after a finished run vs pristine clone", want, verifyOn(t, re, w.Document, vc))
}
