// Package core implements the Scrutinizer engine itself: the four property
// classifiers glued to the feature pipeline (§3.1), query generation from
// classifier candidates (Algorithm 2), single-claim verification through
// planned question screens answered by a crowd (§5.1), and the main
// batch-verification loop with claim ordering (Algorithm 1, §5.2).
//
// # Generation-scoped batch assessment
//
// Algorithm 1's scheduler needs the expected cost v(c) and training utility
// u(c) of every remaining claim before every batch. Assessments are cached
// per claim and stamped with the engine's model generation — a counter
// bumped by every retrain — so a round that did not retrain re-reads them
// for free, and a retrain invalidates all of them at once without touching
// the cache.
//
// Stale claims are not re-scored one at a time. Before the per-claim reads,
// assessMany collects every claim whose cached assessment is missing or
// from an older generation, featurises them across the verify worker pool,
// and scores all of them per property kind through a single
// classifier.AnalyzeBatch call — one dense matrix pass per kind per round
// instead of four scoring passes per claim. Candidate options and property
// lists for the whole round are carved from shared arenas, and question
// plans are built across the same pool. The filled cache entries are
// indistinguishable from the legacy per-claim path (pinned by equivalence
// tests; the seqAssess hook preserves that path as the reference
// implementation).
//
// # Retraining at batch barriers
//
// Each batch barrier (Algorithm 1 line 20) retrains the four models on the
// run's labelled pool, which only ever grows, so each model's label
// vocabulary only grows too. The classifiers warm-start on exactly that
// condition — no label they know has vanished — reusing their weights for
// Config.Classifier.WarmStartEpochs passes, new labels joining at zero
// weight (see package classifier). A run's engine starts from the
// verifier's archive model, and the run's first labels for a kind cover
// only part of the archive vocabulary, so that model's first fit in the
// run — normally at the first barrier — refits cold and every later fit
// warm-starts. A kind with no labels in the pool is not fitted
// and keeps its previous model: the archive model for a run, untrained on
// a fresh engine. Observer.ModelFit reports each fit as warm or cold.
//
// A fit's cost is its passes times the examples it visits times two
// classifier kernels: the forward scoring pass, which sweeps every class,
// and the AdaGrad update, which touches only the classes whose gradient is
// not negligible (package classifier states the cutoff). The same scoring
// kernel serves the scheduler's batch assessment, so a barrier's
// re-scoring of the remaining claims gets cheaper with it.
//
// Two things keep a run's training work linear in its length rather than
// quadratic. From a kind's second fit in the run on, a barrier knows its
// pool extends the pool of the kind's previous fit, and says so by calling
// classifier.TrainAppended: a warm fit then visits the new examples plus
// a fixed, seeded replay sample of the older ones (classifier.ReplaySample),
// not the whole pool. Engine.Train, and so Verifier.Retrain, and a run's
// first fit, which may warm-start from the verifier's model on another
// pool, keep full passes. And the barrier that ends a run prepares its
// retrain — the example sets and the formula library, where its errors
// come from, and the generation bump — but leaves the fits pending on the
// engine: no batch follows to use them. ensureFitted runs them once, on
// the first read of the models (Model, Clone, the scoring paths, a later
// retrain), and Generation does not force them; the fitted models are the
// ones an eager fit gives. A run verified and then dropped never pays for
// its last fit, and Observer.ModelFit reports those fits only if they run.
//
// # Formula cache
//
// Formula strings recur relentlessly: every claim's ground truth is
// consulted each batch, every generated query renders its formula, every
// enumeration compiles it. The engine routes all of that through one
// internal cache keyed by both source string and parsed node, memoizing the
// parse, the canonical rendering, the alias list and the compiled program.
// An engine and every Clone derived from it share the cache — it holds
// derived, immutable data only.
//
// # Run engines share models copy-on-write
//
// A verification run retrains its models at every barrier, so it needs an
// engine of its own: Engine.Clone derives one from a trained engine in
// O(1). The four classifiers are copy-on-write clones (see package
// classifier): they read the source's weights until a fit writes, and a
// fit copies only what it writes. A run's first fit normally refits cold
// into fresh buffers (see above), so the source's weights are never
// copied; only a warm first fit that adds no labels and no features
// copies the weight matrices. The
// source engine may itself keep training (Verifier.Retrain) while runs
// cloned from it are live. The per-run feature and assessment caches start
// empty; a finished run's engine is simply collected.
//
// Trained state lives in memory only and has no serialized form. It is a
// deterministic function of the training claims and the configuration, so
// a restarted service rebuilds its engines by retraining from its journal.
//
// # Parallelism
//
// One claim batch is verified across VerifyConfig.Parallelism goroutines,
// and within a claim, Algorithm 2 enumeration fans out across candidate
// formulas under Config.FormulaParallelism (misses are pre-enumerated into
// the query cache at full budget, which serves any smaller budget
// identically, and still count as misses). Per-claim crowd random streams
// and deterministic merge order make every result bit-identical to a
// sequential run, whatever the fan-out — the repository's standing
// determinism contract, pinned by the equivalence tests in this package.
//
// # Lock domains
//
// Concurrent runs (many engines cloned from one verifier, many verifiers
// over one corpus) share exactly three mutable structures, each with its
// own isolated lock domain so the serving hot path never funnels through
// a single mutex:
//
//   - QueryCache: striped QueryCacheShards ways by key hash. Each shard
//     owns a mutex, an entry map and a FIFO eviction budget; hit/miss
//     counters are atomics. A top-level RWMutex guards only the
//     (corpus, generation) epoch — lookups share it read-side and then
//     touch one shard, while an epoch transition (corpus mutation) takes
//     it write-side to flush every shard atomically.
//   - feature.Pipeline memo: a sync.Map of write-once (sentence, claim)
//     vectors — steady-state reads are lock-free, and concurrent first
//     computes of the same key converge on one shared vector.
//   - table.Corpus index: an atomic.Pointer snapshot validated by a
//     generation compare; readers never block, and a mutex serialises
//     rebuilds only.
//
// Everything else an engine touches is either private to its run (claim
// state, assessment cache, scratch buffers), immutable after construction
// (the fitted pipeline, corpus relations under the service's
// freeze-on-first-verifier rule), or copy-on-write (classifier weights: a
// fit copies a shared buffer before writing it), which is what makes the
// sharing above sufficient. The same discipline continues
// one layer up: session.Manager splits its registry RWMutex from the
// per-session locks and serves activity stamps and stats from per-session
// atomics, and Verifier counts runs atomically so StartRun never contends
// with Retrain.
//
// # Cancellation
//
// Every entry point that can do unbounded work takes a context.Context,
// and cancellation is cooperative: cheap checkpoints at the natural joints
// of Algorithm 1 (round boundaries, batch-selection scans, retrain
// barriers) and Algorithm 2 (every enumCheckEvery enumerated assignments)
// rather than preemption. Cancellation is all-or-nothing at answer
// granularity — a cancelled answer is rolled back and repostable, a
// partial enumeration is never cached, and a session-owned retrain barrier
// runs to completion as a commit point. The full checkpoint inventory and
// the reasoning live in cancel.go; the overhead of a live deadline on an
// end-to-end verify is pinned by BenchmarkVerifyWithDeadline at <2%.
package core
